"""The reference work that measures how fast the machine runs right now.

On a shared virtual machine the same work runs up to twice as slowly at
times, and the mix of fast and slow spells drifts over minutes, so two
runs of the same code a few minutes apart differ by 20-40 % in raw time.
The benchmark therefore times a fixed piece of reference work between
its jobs and reports job times as multiples of the reference's median
time in the run: a drift slows both alike, a change to genimpl moves
only the jobs.  The reference is the same kind of work as the workload,
and never touches genimpl:

- nested-laws (in process): ``loop``, plain interpreted Python integer
  and float arithmetic and a dict store per step, like the float scans
  that take most of a check; about 20 ms.
- cli-session (a process per invocation): ``STARTUP_ARGV``, a fresh
  interpreter that imports mpmath and exits, which is how every genimpl
  invocation starts; about 60 ms, run by spawner.py after every fourth
  invocation.
"""

import sys
from time import perf_counter

ITERATIONS = 100_000
STARTUP_ARGV = [sys.executable, "-c", "import mpmath"]


def loop() -> int:
    s, f, seen = 0, 0.5, {}
    for i in range(ITERATIONS):
        s += (i * i) % 97
        f = f * 1.0000001 + 0.1 / (i + 1)
        seen[i & 63] = s
    return s


def sample() -> float:
    """Seconds for one run of the loop."""
    t0 = perf_counter()
    loop()
    return perf_counter() - t0
