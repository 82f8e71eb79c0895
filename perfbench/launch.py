"""The genimpl CLI with per-layer tracing.

    python perfbench/launch.py COUNTERS.json ARGS...

Installs the benchmark's tracer, runs genimpl.cli.main(ARGS), writes the
tracer's counters to COUNTERS.json and exits with main's exit code.
genimpl must be importable (PYTHONPATH=src).
"""

import json
import sys

import tracing


def main() -> None:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.install()
    from genimpl import cli

    code = 1
    try:
        code = cli.main(argv)
    except SystemExit as e:  # argparse errors exit 2 from inside main
        code = e.code
    finally:
        sys.stdout.flush()
        with open(out, "w") as fh:
            json.dump(tracer.counters, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
