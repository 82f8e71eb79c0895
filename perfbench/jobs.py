"""The two workloads' job lists and their hand-kept known answers.

Every expected verdict below comes from the mathematics, not from a run:
residuals of continuous t-norms satisfy NP, EP, IP and OP, and CP with
respect to their strong natural negation; g-generated implications
satisfy EP; (S,N)-implications satisfy NP, EP and I1-I3; the
acceptance-gate identities hold within tolerance; the quadratic mean is
not associative and its residual fails I3 at (0,0); a generator with a
range gap breaks EP and associativity.  See WORKLOADS.md for the
reasoning per job and for the seed's known-wrong answers that are left
out.

A "fails" verdict is accepted only when its witness reproduces on its
own: the law's discrepancy at the witness point, re-evaluated both with
the package's operator called point by point and with the hand-written
closed form of reference.py, must exceed the report's tolerance.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

import mpmath

import reference as ref

HOLDS = "holds-on-samples"
FAILS = "fails"
CONSISTENT = "consistent-with-membership"
EXCLUDED = "excluded"

TOL = 1e-9
VALUE_TOL = 1e-9  # eval/residual values against the closed form


@dataclass(frozen=True)
class Op:
    """An operator as a user would give it (a spec), with its closed form."""

    name: str
    spec: dict
    ref: object  # mpf -> mpf function of reference.py

    @property
    def text(self) -> str:
        return json.dumps(self.spec, separators=(",", ":"))


def yager_residual(p):
    return Op(f"yager_residual({p})", {"kind": "yager_residual", "p": p},
              ref.yager_residual(p))


def yager_tnorm(p):
    return Op(f"yager_tnorm({p})", {"kind": "yager_tnorm", "p": p},
              ref.yager_tnorm(float(p)))


def generated_yager(p):
    return Op(f"generated_tnorm(yager_f {p})",
              {"kind": "generated_tnorm", "f": {"kind": "yager_f", "p": p}},
              ref.yager_tnorm(float(p)))


def residual_of_yager(p):
    return Op(f"residual(yager_tnorm {p})",
              {"kind": "residual", "of": {"kind": "yager_tnorm", "p": p}},
              ref.yager_residual(p))


def phi_conjugate(a):
    return Op(f"phi_conjugate(power {a})",
              {"kind": "phi_conjugate", "phi": {"kind": "power", "a": a}},
              ref.lk_conjugate(a))


def power_negation(a):
    return Op(f"N_phi(power {a})",
              {"kind": "phi", "phi": {"kind": "power", "a": a}},
              ref.power_negation(a))


def basic(name, fn):
    return Op(name, {"kind": "basic", "name": name}, fn)


LUKASIEWICZ = Op("lukasiewicz", {"kind": "lukasiewicz"}, ref.lukasiewicz)
IG_POWER2 = Op("ig(power_gp 2)", {"kind": "ig", "g": {"kind": "power_gp", "p": 2}},
               ref.ig_power(2))
IG_NEGLOG = Op("ig(neg_log)", {"kind": "ig", "g": {"kind": "neg_log"}},
               ref.reichenbach)
PROBSUM_GENERATED = Op("generated_tconorm(neg_log)",
                       {"kind": "generated_tconorm", "g": {"kind": "neg_log"}},
                       ref.probabilistic_sum)
PIECEWISE_I = Op("piecewise_f", {"kind": "piecewise_f"}, ref.piecewise_implication)
PIECEWISE_S = Op("generated_tconorm(piecewise_f)",
                 {"kind": "generated_tconorm", "g": {"kind": "piecewise_f"}},
                 ref.piecewise_tconorm)
MEAN = Op("mean", {"kind": "mean"}, ref.quadratic_mean)
DUAL_MEAN = Op("dual(mean)", {"kind": "dual", "of": {"kind": "mean"}},
               ref.dual(ref.quadratic_mean))
MEAN_RESIDUAL = Op("mean_residual", {"kind": "mean_residual"}, ref.mean_residual)
PRODUCT = basic("product", ref.product)
PROBSUM = Op("dual(product)", {"kind": "dual", "of": {"kind": "basic", "name": "product"}},
             ref.probabilistic_sum)
REICHENBACH_SN = Op("sn(dual(product), standard)",
                    {"kind": "sn", "S": PROBSUM.spec, "N": {"kind": "standard"}},
                    ref.reichenbach)
# S = dual of Yager p=2 (the Yager t-conorm), N = (1-x^2)^(1/2): the
# phi-conjugate of the Lukasiewicz implication for phi(x) = x^2
SN_YAGER2 = Op("sn(dual(yager_tnorm 2), N_phi(power 2))",
               {"kind": "sn", "S": {"kind": "dual", "of": {"kind": "yager_tnorm", "p": 2}},
                "N": {"kind": "phi", "phi": {"kind": "power", "a": 2}}},
               ref.lk_conjugate(2))
STANDARD = Op("standard", {"kind": "standard"}, ref.standard_negation)
YAGER_NP2 = Op("yager_np(2)", {"kind": "yager_np", "p": 2}, ref.yager_negation(2))


def table_of(path, source):
    return Op(f"table[surface of {source.name}]", {"kind": "table", "path": path},
              source.ref)


# --------------------------------------------------------------------------
# Library workloads
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Job:
    """One law check: law NP/IP/OP/EP/CP/I1-I3/T1-T4/associativity/compare.

    ``ops`` are the law's operands: the operator, then the negation for
    CP or the second surface for compare.  ``fails`` is the property the
    report must name as failing, or None when the law holds.
    """

    law: str
    ops: tuple
    fails: str | None = None

    @property
    def name(self) -> str:
        sep = " vs " if self.law == "compare" else " w.r.t. "
        return f"{self.law} " + sep.join(op.name for op in self.ops)


def nested_laws() -> list[Job]:
    return [
        *(Job("EP", (yager_residual(p),)) for p in (0.5, 2, 3.7)),
        Job("EP", (IG_POWER2,)),
        Job("EP", (IG_NEGLOG,)),
        *(Job("T1-T4", (yager_tnorm(p),)) for p in (0.5, 2)),
        Job("T1-T4", (generated_yager(2),)),
        Job("associativity", (PROBSUM_GENERATED,)),
        # pair laws that never enter the nested chain: the bisection
        # residual and a phi-conjugate
        Job("OP", (residual_of_yager(2),)),
        Job("I1-I3", (phi_conjugate(2),)),
        Job("EP", (PIECEWISE_I,), fails="EP"),
        Job("associativity", (MEAN,), fails="associativity"),
        Job("associativity", (PIECEWISE_S,), fails="associativity"),
    ]


def parses(job: Job) -> list:
    """(spec, parser) for each operand; the parser is a genimpl.specs function."""
    if job.law in ("T1-T4", "associativity"):
        return [(job.ops[0].spec, "parse_connective")]
    if job.law == "compare":
        return [(op.spec, "parse_binary") for op in job.ops]
    if job.law == "CP":
        return [(job.ops[0].spec, "parse_implication"), (job.ops[1].spec, "parse_negation")]
    return [(job.ops[0].spec, "parse_implication")]


def build(job: Job) -> tuple:
    """Parse the job's operands through the package's spec parser.

    Functions are looked up on the module at call time, so a traced run
    sees the wrapped versions.
    """
    from genimpl import specs

    return tuple(getattr(specs, parser)(spec) for spec, parser in parses(job))


def run_job(job: Job, built: tuple, plan):
    from genimpl import properties

    if job.law == "I1-I3":
        return properties.check_implication_axioms(built[0], plan)
    if job.law == "T1-T4":
        return properties.check_tnorm_axioms(built[0], plan)
    if job.law == "associativity":
        return properties.find_associativity_counterexample(built[0], plan)
    if job.law == "compare":
        return properties.compare_surfaces(built[0], built[1], plan)
    if job.law == "CP":
        return properties.check_property(built[0], "CP", plan, built[1])
    return properties.check_property(built[0], job.law, plan)


# --------------------------------------------------------------------------
# Known answers and witness re-evaluation
# --------------------------------------------------------------------------


def law_gap(prop: str, w: dict, f, g=None, n=None, tol: float = TOL):
    """The law's discrepancy at witness ``w``, evaluated with f (g, n)."""
    x, y, z = w.get("x"), w.get("y"), w.get("z")
    if prop == "NP":
        return abs(f(1, y) - y)
    if prop == "IP":
        return abs(f(x, x) - 1)
    if prop == "OP":
        v = f(x, y)
        if x <= y:
            return abs(v - 1)
        return x - y if v >= 1 - tol and x > y + 10 * tol else 0
    if prop == "CP":
        return abs(f(x, y) - f(n(y), n(x)))
    if prop == "EP":
        return abs(f(x, f(y, z)) - f(y, f(x, z)))
    if prop == "I3":
        return abs(f(x, y) - w["expected"])
    if prop == "I1":
        return f(w["x2"], y) - f(w["x1"], y)
    if prop in ("I2", "T3"):
        return f(x, w["y1"]) - f(x, w["y2"])
    if prop == "T1":
        return abs(f(x, y) - f(y, x))
    if prop == "T4":
        return abs(f(x, 1) - x)
    if prop == "T2":
        return abs(f(f(x, y), z) - f(x, f(y, z)))
    if prop == "associativity":
        a, b, c = w["a"], w["b"], w["c"]
        return abs(f(a, f(b, c)) - f(f(a, b), c))
    if prop == "surface-compare":
        return abs(f(x, y) - g(x, y))
    raise ValueError(f"no re-evaluation for property {prop!r}")


_PARSED: dict = {}


def program_op(op: Op):
    """The package's operator for ``op``, for standalone re-evaluation."""
    from genimpl import specs

    if op.text not in _PARSED:
        parse = specs.parse_negation if op.spec["kind"] in (
            "standard", "yager_np", "phi") else specs.parse_binary
        _PARSED[op.text] = parse(op.spec)
    return _PARSED[op.text]


def reproduces(prop: str, witness: dict, tol: float, ops: tuple) -> str | None:
    """None when the witness shows the violation both ways, else why not."""
    second = ops[1] if len(ops) > 1 else None
    f, g, n = (ops[0], None, second) if prop == "CP" else (ops[0], second, None)
    prog = [program_op(o) if o else None for o in (f, g, n)]
    gap = law_gap(prop, witness, *prog, tol=tol)
    with mpmath.workdps(ref.DPS):
        w = {k: mpmath.mpf(v) if isinstance(v, float) else v
             for k, v in witness.items()}
        gap_ref = law_gap(prop, w, *(o.ref if o else None for o in (f, g, n)), tol=tol)
    if not gap > tol:
        return f"{prop} witness does not reproduce with the package (gap {float(gap):.3g})"
    if not gap_ref > tol:
        return f"{prop} witness does not reproduce in closed form (gap {float(gap_ref):.3g})"
    return None


def judge_report(report: dict, fails: str | None, ops: tuple) -> list[str]:
    """Mismatches between a report and its known answer."""
    if fails is None:
        if report["verdict"] != HOLDS:
            return [f"expected holds, got {report['verdict']} on {report['property']} "
                    f"at {report['witness']}"]
        return []
    if report["verdict"] != FAILS or report["property"] != fails:
        return [f"expected {fails} to fail, got {report['verdict']} on {report['property']}"]
    try:
        why = reproduces(fails, report["witness"], report["tolerance"], ops)
    except (KeyError, TypeError, ValueError) as e:
        why = f"{fails} witness cannot be re-evaluated: {e!r}"
    return [why] if why else []


def summary(report: dict) -> dict:
    """Verdict and witness coordinates, for the per-job rows."""
    return {"property": report["property"], "verdict": report["verdict"],
            "witness": report["witness"], "max_discrepancy": report["max_discrepancy"]}


# --------------------------------------------------------------------------
# cli-session
# --------------------------------------------------------------------------


@dataclass
class Call:
    """One `genimpl` invocation and its known answer.

    value: (op, x, y) whose closed form the printed value must match.
    reports: per printed report, (failing property or None, operands).
    probes: per printed class probe, (class_id, failing property or None, operands).
    surface: the resolution of the CSV the call writes to argv[-1].
    parses: (spec, parser) pairs the set-up probe parses; tables the
    session writes itself are not among them.
    """

    argv: list
    rc: int = 0
    value: tuple | None = None
    reports: list | None = None
    probes: list | None = None
    surface: int | None = None
    parses: list = field(default_factory=list)

    @property
    def name(self) -> str:
        return " ".join(self.argv)


def cli_session(seed: int, outdir: str) -> list[Call]:
    """101 invocations over all seven subcommands.

    Most are short (eval, residual, pair-law verify, compare, fail-fast
    counterexample, surface then eval on the table).  Eleven `verify
    axioms` calls of similar cost form the cluster the 90th percentile
    falls in; above it sit three class probes and one pair-law verify of
    the bisection residual, so p90 sits inside a cluster, not on the
    edge between two.
    """
    rng = random.Random(seed)
    sampled = ["--seed", str(seed), "--json"]
    calls: list[Call] = []

    def point():
        return rng.randint(1, 999) / 1000

    def value(cmd, op, parser):
        for _ in range(3):
            x, y = point(), point()
            calls.append(Call([cmd, op.text, repr(x), repr(y), "--json"],
                              value=(op, x, y), parses=[(op.spec, parser)]))

    for op in (yager_residual(0.5), yager_residual(2), yager_residual(3.7),
               LUKASIEWICZ, IG_NEGLOG, IG_POWER2, yager_tnorm(2), PRODUCT,
               PROBSUM, MEAN, phi_conjugate(2), MEAN_RESIDUAL):
        value("eval", op, "parse_binary")
    residuals = [
        Op("R[product]", PRODUCT.spec, ref.goguen),
        Op("R[lukasiewicz]", {"kind": "basic", "name": "lukasiewicz"}, ref.lukasiewicz),
        Op("R[min]", {"kind": "basic", "name": "min"}, ref.goedel),
        Op("R[yager_tnorm 2]", yager_tnorm(2).spec, ref.yager_residual(2)),
    ]
    for op in residuals:
        value("residual", op, "parse_connective")

    def verify(op, laws, neg=None, fails=None, rc=0):
        tokens = [f"CP:{neg.text}" if law == "CP" else law for law in laws]
        reports = [(fails if law == fails or (law == "axioms" and fails in ("I1", "I2", "I3"))
                    else None, (op, neg) if law == "CP" else (op,)) for law in laws]
        parses = [(op.spec, "parse_binary")] + ([(neg.spec, "parse_negation")] if neg else [])
        calls.append(Call(["verify", op.text, *tokens, *sampled], rc=rc,
                          reports=reports, parses=parses))

    verify(LUKASIEWICZ, ["NP", "IP", "OP", "CP"], STANDARD)
    verify(yager_residual(2), ["NP", "IP", "OP", "CP"], YAGER_NP2)
    # not OP: a false "fails" on some seeds (WORKLOADS.md, "Left out on purpose")
    verify(yager_residual(0.5), ["NP", "IP"])
    verify(phi_conjugate(2), ["NP", "IP", "OP", "CP"], power_negation(2))
    verify(SN_YAGER2, ["NP", "IP", "OP"])
    verify(Op("residual(product)", {"kind": "residual", "of": PRODUCT.spec}, ref.goguen),
           ["NP", "IP", "OP"])
    verify(IG_NEGLOG, ["NP", "IP"], fails="IP", rc=1)
    verify(MEAN_RESIDUAL, ["NP"], fails="NP", rc=1)
    verify(PIECEWISE_I, ["NP", "IP", "OP"], fails="OP", rc=1)
    for op in (LUKASIEWICZ, *map(yager_residual, (0.5, 0.75, 1, 1.5, 2, 2.5, 3, 3.5, 3.7, 4))):
        verify(op, ["axioms"])
    verify(MEAN_RESIDUAL, ["axioms"], fails="I3", rc=1)

    def compare(f, g, fails=None):
        calls.append(Call(["compare", f.text, g.text, *sampled],
                          reports=[(fails, (f, g))],
                          parses=[(f.spec, "parse_binary"), (g.spec, "parse_binary")]))

    compare(LUKASIEWICZ, yager_residual(1))
    compare(PROBSUM, PROBSUM_GENERATED)
    compare(basic("min", ref.minimum), yager_tnorm("inf"))
    compare(phi_conjugate(2), SN_YAGER2)
    for p in (0.5, 2):
        compare(generated_yager(p), yager_tnorm(p))
    compare(LUKASIEWICZ, yager_residual(2), fails="surface-compare")
    compare(MEAN, basic("min", ref.minimum), fails="surface-compare")

    for op in (MEAN, DUAL_MEAN, PIECEWISE_S, MEAN):
        calls.append(Call(["counterexample", op.text, "associativity", *sampled], rc=1,
                          reports=[("associativity", (op,))], parses=[(op.spec, "parse_binary")]))

    # bilinear surfaces: the table read back reproduces them exactly; each
    # surface call and the two evals on its table stay together
    groups = []
    for k, op in enumerate((PRODUCT, PROBSUM, REICHENBACH_SN)):
        path = f"{outdir}/surface-{k}.csv"
        table = table_of(path, op)
        group = [Call(["surface", op.text, "-n", "101", "-o", path],
                      surface=101, parses=[(op.spec, "parse_binary")])]
        for _ in range(2):
            x, y = point(), point()
            group.append(Call(["eval", table.text, repr(x), repr(y), "--json"],
                              value=(table, x, y)))
        groups.append(group)

    def classify(op, cls, class_id, fails=None):
        calls.append(Call(["classify", op.text, "--classes", cls, *sampled],
                          probes=[(class_id, fails, (op,))],
                          parses=[(op.spec, "parse_implication")]))

    classify(phi_conjugate(2), "lk", "phi-conjugate-LK")
    classify(PIECEWISE_I, "sn", "SN", fails="EP")
    classify(MEAN_RESIDUAL, "r", "R-leftcont", fails="OP")

    # malformed input: an error message, exit 2, no traceback
    bad = [
        ["eval", "{kind", "0.5", "0.5"],
        ["eval", '{"kind":"nope"}', "0.5", "0.5"],
        ["eval", LUKASIEWICZ.text, "abc", "0.5"],
        ["verify", LUKASIEWICZ.text, "XX"],
        ["verify", LUKASIEWICZ.text, "CP"],
        ["classify", LUKASIEWICZ.text, "--classes", "zz"],
        ["surface", PRODUCT.text, "-n", "1", "-o", f"{outdir}/never.csv"],
        ["counterexample", MEAN.text, "bogus"],
    ]
    calls += [Call(argv, rc=2) for argv in bad]

    # seeded order: a slow spell of the machine then hits part of each
    # cluster of similar calls, not a whole cluster at once
    groups += [[c] for c in calls]
    rng.shuffle(groups)
    return [c for g in groups for c in g]


def judge_call(call: Call, rc: int, out: str, err: str) -> tuple[list[str], object]:
    """Mismatches between an invocation's result and its known answer,
    and the verdicts/witnesses it printed."""
    problems = []
    if rc != call.rc:
        problems.append(f"exit {rc}, expected {call.rc}: {err.strip()[-200:]}")
    if "Traceback" in err:
        problems.append("traceback on stderr")
    if call.rc == 2:
        if out:
            problems.append("output on a malformed call")
        return problems, {"exit": rc}
    if problems:
        return problems, {"exit": rc}
    if call.surface is not None:
        with open(call.argv[-1]) as fh:
            lines = fh.read().splitlines()
        if lines[0] != "x,y,value" or len(lines) != call.surface ** 2 + 1:
            problems.append("surface file has the wrong shape")
        return problems, {"exit": rc, "rows": len(lines) - 1}
    try:
        data = json.loads(out)
    except json.JSONDecodeError:
        return [f"stdout is not JSON: {out[:80]!r}"], {"exit": rc}
    if call.value is not None:
        op, x, y = call.value
        want = ref.at(op.ref, x, y)
        if not abs(data["value"] - want) <= VALUE_TOL:
            problems.append(f"value {data['value']!r}, closed form {want!r}")
        return problems, {"exit": rc, "value": data["value"]}
    if call.probes is not None:
        if len(data) != len(call.probes):
            return [f"{len(data)} probe results, expected {len(call.probes)}"], {"exit": rc}
        shown = []
        for res, (class_id, fails, ops) in zip(data, call.probes):
            failing = [r for r in res["verdicts"] if r["verdict"] != HOLDS]
            want = EXCLUDED if fails else CONSISTENT
            if res["class_id"] != class_id or res["overall"] != want:
                problems.append(f"{res['class_id']}: {res['overall']}, expected {want}")
            elif fails:
                problems += judge_report(failing[0], fails, ops)
            shown.append({"class_id": res["class_id"], "overall": res["overall"],
                          "failing": [summary(r) for r in failing]})
        return problems, {"exit": rc, "probes": shown}
    reports = data if isinstance(data, list) else [data]
    if len(reports) != len(call.reports):
        return [f"{len(reports)} reports, expected {len(call.reports)}"], {"exit": rc}
    for rep, (fails, ops) in zip(reports, call.reports):
        problems += judge_report(rep, fails, ops)
    return problems, {"exit": rc, "reports": [summary(r) for r in reports]}
