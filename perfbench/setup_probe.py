"""Cold set-up cost of a workload, measured in a fresh process.

Reads {"plan": {SampleSpec fields}, "cli": bool, "parses": [[spec, parser], ...]}
on stdin, then times importing genimpl (and genimpl.cli for the CLI
workload), parsing every spec with the named parser of genimpl.specs,
and building the workload's sample plans.  Prints the seconds.
"""

import json
import sys
from time import perf_counter

task = json.load(sys.stdin)
t0 = perf_counter()

from genimpl import specs  # noqa: E402  (the import is part of what is timed)
from genimpl.reports import SampleSpec  # noqa: E402

if task["cli"]:
    import genimpl.cli  # noqa: E402,F401

for spec, parser in task["parses"]:
    getattr(specs, parser)(spec)
plan = SampleSpec(**task["plan"])
plan.points_1d()
plan.pairs()
plan.triples()
print(perf_counter() - t0)
