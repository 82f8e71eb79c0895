"""Time-to-verdict benchmark of genimpl.

    python3 perfbench/run.py --workload nested-laws|cli-session \
        --seed N --seconds S --trace 0|1

Run it from a checkout of the repository; it imports the package from
``src`` and builds nothing.  Each workload is a closed loop with one
caller in one process: the next job starts when the previous verdict is
in.  A pass runs the workload's whole job list; a run makes at least
three passes, and more while the next one is expected to end within
``--seconds``.  Every verdict is checked against its known answer (jobs.py).

--trace 0 reports the end-to-end metrics: setup_s (median over fresh
processes), wall_ref (the job list at each job's median time over the
passes, in multiples of the median time of speed.py's reference work),
job_ref_p50 and job_ref_p90 (of those per-job times), peak_rss_mb.
--trace 1 runs one untraced and one traced pass and reports the
per-layer metrics (tracing.py).  WORKLOADS.md defines them all.

Before the final line, the output records the run environment, one row
per job (median seconds, relative time, verdict, witness coordinates)
and every mismatch.
The last line is {"correct", "attempted", "failed", "metrics"}; failed
counts jobs whose verdict, failing law or exit code differs from the
known answer, that crashed, or whose "fails" witness does not
reproduce, so failed/attempted is the verdict mismatch share.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import jobs
import speed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("nested-laws", "cli-session")
SETUP_PROCESSES = 9
STARTUP_SAMPLES = 3
MIN_PASSES = 3
# nested-laws checks triples on an 11^3 grid plus 500 random triples
# (1,831), not the default 21^3 + 2000 (11,261): the same loops and
# chains per triple, so each check takes 0.2-0.4 s and a run gets six to
# twelve samples of it (WORKLOADS.md, "Why a smaller triple plan")
LIBRARY_TRIPLES = {"triple_grid_n": 11, "triple_random_count": 500}


@dataclasses.dataclass
class Pass:
    wall: float
    times: list  # per job, in job order
    problems: list  # per job, the mismatches with the known answer
    shown: list  # per job, the verdicts and witnesses it produced
    refs: list  # reference times (speed.py), sampled between the jobs
    rss_kib: int = 0
    stdout_bytes: int = 0


def timed_passes(run_pass, seconds: float) -> list[Pass]:
    """MIN_PASSES passes, and more while the next is expected to end in time."""
    passes, start = [], perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - start + passes[-1].wall <= seconds:
        passes.append(run_pass())
    return passes


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def setup_probe(task: dict) -> float:
    """Cold set-up cost in one fresh process (setup_probe.py)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py")], input=json.dumps(task),
        capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=120, check=True)
    return float(proc.stdout)


def measured_run(task: dict, run_passes) -> tuple[float, list]:
    """(setup_s, passes): the median of SETUP_PROCESSES set-up probes,
    half taken before the passes and half after, so that they sample the
    machine over the whole run rather than over one second of it."""
    before = [setup_probe(task) for _ in range(SETUP_PROCESSES // 2)]
    passes = run_passes()
    after = [setup_probe(task) for _ in range(SETUP_PROCESSES - len(before))]
    return statistics.median(before + after), passes


# --------------------------------------------------------------------------
# Library workloads
# --------------------------------------------------------------------------


def library_pass(job_list, built, plan) -> Pass:
    times, reports, refs = [], [], []
    start = perf_counter()
    for job, ops in zip(job_list, built):
        t0 = perf_counter()
        try:
            # the verdict as a user would keep it
            reports.append(jobs.run_job(job, ops, plan).to_json())
        except Exception as e:  # a crash is a wrong answer, not the end of the run
            reports.append(e)
        times.append(perf_counter() - t0)
        refs.append(speed.sample())
    wall = perf_counter() - start
    problems, shown = [], []
    for job, report in zip(job_list, reports):
        if isinstance(report, Exception):
            problems.append([f"crashed: {report!r}"])
            shown.append({"crashed": repr(report)})
        else:
            d = json.loads(report)
            problems.append(jobs.judge_report(d, job.fails, job.ops))
            shown.append(jobs.summary(d))
    return Pass(wall, times, problems, shown, refs)


def library(plan, seconds: float, trace: bool):
    from genimpl.reports import SampleSpec

    job_list = jobs.nested_laws()
    result = {"names": [j.name for j in job_list]}

    # warm-up: every job once on a small plan, so lazy initialisation
    # (mpmath's caches, first-call costs) is paid before timing
    small = SampleSpec(grid_n=11, random_count=10, seed=plan.seed,
                       triple_grid_n=3, triple_random_count=10)
    for job in job_list:
        jobs.run_job(job, jobs.build(job), small).to_json()

    built = [jobs.build(j) for j in job_list]
    if not trace:
        task = {"plan": dataclasses.asdict(plan), "cli": False,
                "parses": [p for j in job_list for p in jobs.parses(j)]}
        result["setup_s"], result["passes"] = measured_run(
            task, lambda: timed_passes(lambda: library_pass(job_list, built, plan), seconds))
        result["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return result

    untraced = library_pass(job_list, built, plan)
    tracer = tracing.install()
    built = [jobs.build(j) for j in job_list]
    traced = library_pass(job_list, built, plan)
    result["passes"] = [untraced, traced]
    result["counters"] = tracer.counters
    result["overhead_s"] = traced.wall - untraced.wall
    return result


# --------------------------------------------------------------------------
# cli-session
# --------------------------------------------------------------------------


def run_commands(commands: list) -> dict:
    """Run argv lists in order through spawner.py (see there for why)."""
    proc = subprocess.run([sys.executable, str(HERE / "spawner.py")],
                          input=json.dumps(commands), capture_output=True, text=True,
                          env=child_env(), cwd=ROOT, timeout=170, check=True)
    return json.loads(proc.stdout)


def judge_call(call, rc, out, err) -> tuple:
    try:
        return jobs.judge_call(call, rc, out, err)
    except (KeyError, TypeError, ValueError, IndexError) as e:  # output of another shape
        return [f"unexpected output: {e!r}"], {"exit": rc}


def cli_pass(calls, prefix) -> Pass:
    ran = run_commands([prefix(k) + call.argv for k, call in enumerate(calls)])
    results = ran["results"]
    judged = [judge_call(call, rc, out, err) for call, (_, rc, out, err, _) in zip(calls, results)]
    return Pass(ran["wall"], [r[0] for r in results], [j[0] for j in judged],
                [j[1] for j in judged], ran["refs"], rss_kib=max(r[4] for r in results),
                stdout_bytes=sum(len(r[2].encode()) for r in results))


def cli_session(plan, seconds: float, trace: bool, work: Path):
    calls = jobs.cli_session(plan.seed, str(work))
    untraced = lambda k: [sys.executable, "-m", "genimpl.cli"]  # noqa: E731
    result = {"names": [c.name for c in calls]}
    if not trace:
        task = {"plan": dataclasses.asdict(plan), "cli": True,
                "parses": [p for c in calls for p in c.parses]}
        result["setup_s"], result["passes"] = measured_run(
            task, lambda: timed_passes(lambda: cli_pass(calls, untraced), seconds))
        result["rss_kib"] = max(p.rss_kib for p in result["passes"])
        return result

    counters = work / "counters"
    counters.mkdir()
    traced = lambda k: [sys.executable, str(HERE / "launch.py"),  # noqa: E731
                        str(counters / f"{k}.json")]
    passes = [cli_pass(calls, untraced), cli_pass(calls, traced)]
    result["passes"] = passes
    result["counters"] = tracing.merge(json.loads(f.read_text())
                                       for f in sorted(counters.iterdir()))
    result["overhead_s"] = passes[1].wall - passes[0].wall
    return result


# --------------------------------------------------------------------------


def environment(plan) -> dict:
    import mpmath

    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "seed": plan.seed,
        # every field, the triple plan too (SampleSpec.as_dict omits it)
        "sample_plan": dataclasses.asdict(plan),
        "points": len(plan.points_1d()),
        "pairs": len(plan.pairs()),
        "triples": len(plan.triples()),
    }


def median_times(passes: list) -> list:
    """Each job's median time over the passes, in job order."""
    return [statistics.median(ts) for ts in zip(*(p.times for p in passes))]


def relative_times(passes: list) -> list:
    """median_times in multiples of the reference work's median time over
    the same passes: the machine's speed drifts over minutes, and the
    reference work, timed between the jobs, drifts with it (speed.py)."""
    ref = statistics.median(r for p in passes for r in p.refs)
    return [t / ref for t in median_times(passes)]


def end_to_end(result: dict) -> dict:
    rel = relative_times(result["passes"])
    return {
        "setup_s": result["setup_s"],
        "wall_ref": sum(rel),
        "job_ref_p50": statistics.median(rel),
        "job_ref_p90": statistics.quantiles(rel, n=10)[8],
        "peak_rss_mb": result["rss_kib"] / 1024,
    }


def per_layer(result: dict) -> dict:
    metrics = tracing.layer_metrics(result["counters"])
    metrics["cli.startup_s"] = statistics.median(
        r[0] for r in run_commands(
            [[sys.executable, "-m", "genimpl.cli", "--help"]] * STARTUP_SAMPLES)["results"])
    metrics["cli.stdout_bytes"] = result["passes"][1].stdout_bytes
    metrics["trace.overhead_s"] = result["overhead_s"]
    return metrics


def declared_units(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "genimpl" / "__init__.py").is_file():
        print(f"error: no genimpl package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from genimpl.reports import SampleSpec

    if args.workload == "cli-session":  # the CLI's own plan
        plan = SampleSpec(seed=args.seed)
    else:
        plan = SampleSpec(seed=args.seed, **LIBRARY_TRIPLES)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        print("env", json.dumps(environment(plan)), flush=True)
        if args.workload == "cli-session":
            result = cli_session(plan, args.seconds, bool(args.trace), work)
        else:
            result = library(plan, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work)
        if not any(WORK.iterdir()):
            WORK.rmdir()

    passes = result["passes"]
    untraced = passes[:1] if args.trace else passes
    for name, seconds, rel, shown in zip(result["names"], median_times(untraced),
                                         relative_times(untraced), passes[0].shown):
        print("job", json.dumps({"job": name, "s": seconds, "ref": rel, "result": shown}))
    for p in passes:
        for name, problems in zip(result["names"], p.problems):
            for problem in problems:
                print("MISMATCH", name, "--", problem)
    attempted = sum(len(p.times) for p in passes)
    failed = sum(bool(probs) for p in passes for probs in p.problems)
    print(f"passes {len(passes)}, verdict_mismatch_share {failed}/{attempted}")

    metrics = per_layer(result) if args.trace else end_to_end(result)
    units = declared_units(bool(args.trace))
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
