"""The benchmark's tracer (perfbench/tracing.py) hooks the package by name:
``implications.ImplicationCandidate``, ``residual_numeric``, the
``check_*`` functions and the ``specs.parse_*`` parsers.  A rename in the
package must not break it."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_TRACED_SESSION = """
import tracing
tracer = tracing.install()
from genimpl import properties, specs
from genimpl.reports import SampleSpec
ig = specs.parse_implication({"kind": "ig", "g": {"kind": "power_gp", "p": 2}})
sn = specs.parse_implication({"kind": "sn", "N": {"kind": "standard"},
                              "S": {"kind": "dual", "of": {"kind": "basic", "name": "min"}}})
assert 0 <= ig(0.3, 0.6) <= 1 and sn(0.3, 0.6) == 0.7
assert properties.check_implication_axioms(sn, SampleSpec(grid_n=5, random_count=5)).holds
metrics = tracing.layer_metrics(tracer.counters)
assert metrics["specs.parses"] >= 2 and metrics["properties.checks"] == 1, metrics
assert metrics["implications.calls"] + metrics["connectives.calls"] > 0, metrics
"""


def test_tracer_installs_and_counts():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        (str(ROOT / "src"), str(ROOT / "perfbench"))))
    done = subprocess.run([sys.executable, "-B", "-c", _TRACED_SESSION], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
