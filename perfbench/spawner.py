"""Runs commands one after another; reports how each went.

    python perfbench/spawner.py < commands.json > results.json

Reads a JSON list of argv lists and writes {"wall": seconds, "results":
[[seconds, exit code, stdout, stderr, peak RSS in KiB], ...], "refs":
[seconds, ...]}.  After every fourth command it also runs the reference
command of speed.py, so the refs sample the machine's speed across the
pass.

It is a process of its own, and a small one, so that each child's peak
RSS is the child's: Linux charges an exec'd child the RSS high-water
mark of the process that spawned it, and the benchmark process itself
is larger than a CLI run.
"""

import json
import os
import selectors
import subprocess
import sys
from time import perf_counter

import speed


def run(argv: list) -> list:
    t0 = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for stream in chunks:
            sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            for key, _ in sel.select():
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    # wait4 rather than Popen.wait: it also returns the child's resource usage
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    out, err = (b"".join(chunks[s]).decode() for s in (proc.stdout, proc.stderr))
    return [seconds, proc.returncode, out, err, usage.ru_maxrss]


def main() -> None:
    commands = json.load(sys.stdin)
    start = perf_counter()
    results, refs = [], []
    for k, argv in enumerate(commands):
        results.append(run(argv))
        if k % 4 == 0:
            refs.append(run(speed.STARTUP_ARGV)[0])
    json.dump({"wall": perf_counter() - start, "results": results, "refs": refs}, sys.stdout)


if __name__ == "__main__":
    main()
