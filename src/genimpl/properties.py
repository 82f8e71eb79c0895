"""Numeric verification of connective and implication laws.

Each check walks a deterministic sample set (grid plus seeded random
points), compares within the configured tolerance, and returns a
witness-carrying report on the first failure.  Witnesses are raw sample
points, so re-evaluating them standalone reproduces the discrepancy.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable

import mpmath

from .connectives import BinaryConnective, Negation
from .implications import CHAIN_DPS, ImplicationCandidate
from .reports import PropertyReport, SampleSpec, failing, passing

# OP's reverse direction: exact-1 tests are brittle in floating point,
# so "I = 1" is read as I >= 1 - tol and x <= y as x <= y + 10*tol.
OP_SLACK = 10.0

# Nested laws run in float first; a triple whose float discrepancy exceeds
# this share of the tolerance is re-evaluated at CHAIN_DPS, and only that
# wide evaluation can fail it.
ESCALATE_SHARE = 1 / 16


def _scan_monotone(prop, s, values, xs, increasing, coords):
    """The failing report of the first adjacent pair of ``values`` (an
    operator evaluated along the sorted points ``xs``) that breaks
    monotonicity by more than tol, or None.  ``coords(x1, x2)`` gives the
    witness coordinates of a breaking pair."""
    tol = s.tolerance
    prev = next(values)
    for k, cur in enumerate(values, 1):
        if (cur < prev - tol) if increasing else (cur > prev + tol):
            witness = {**coords(xs[k - 1], xs[k]), "value1": prev, "value2": cur}
            return failing(prop, s, witness, abs(cur - prev))
        prev = cur
    return None


def _second_arg_scan(prop, f, s):
    """Non-decrease of f(x, .) along the sorted samples, for every grid x."""
    xs = sorted(s.points_1d())
    for x in s.grid():
        report = _scan_monotone(
            prop, s, map(f, repeat(x), xs), xs, True,
            lambda y1, y2: {"x": x, "y1": y1, "y2": y2},
        )
        if report:
            return report
    return None


def check_implication_axioms(
    i: ImplicationCandidate, s: SampleSpec | None = None
) -> PropertyReport:
    """Axioms I1 (antitone in x), I2 (monotone in y), I3 (corner values)."""
    s = s or SampleSpec()
    xs = sorted(s.points_1d())

    # I3 first: three exact corner equalities
    corners = [((1.0, 0.0), 0.0), ((0.0, 0.0), 1.0), ((1.0, 1.0), 1.0)]
    for (x, y), want in corners:
        got = i(x, y)
        if abs(got - want) > s.tolerance:
            return failing(
                "I3", s,
                {"x": x, "y": y, "value": got, "expected": want},
                abs(got - want),
            )

    # I1: non-increasing in the first argument along sorted samples
    for y in s.grid():
        report = _scan_monotone(
            "I1", s, map(i, xs, repeat(y)), xs, False,
            lambda x1, x2: {"x1": x1, "x2": x2, "y": y},
        )
        if report:
            return report

    return _second_arg_scan("I2", i, s) or passing("I1-I3", s)


def check_second_arg_monotone(
    i: ImplicationCandidate, s: SampleSpec | None = None
) -> PropertyReport:
    """I2 alone (needed by the class probes)."""
    s = s or SampleSpec()
    return _second_arg_scan("I2", i, s) or passing("I2", s)


def check_property(
    i: ImplicationCandidate,
    prop: str,
    s: SampleSpec | None = None,
    negation: Negation | None = None,
) -> PropertyReport:
    """One of NP, EP, IP, OP, CP (CP needs the negation to test against)."""
    s = s or SampleSpec()
    if prop not in _IMPLICATION_CHECKS:
        raise ValueError(f"unknown property {prop!r}")
    if prop == "CP" and negation is None:
        raise ValueError("CP requires a negation")
    return _IMPLICATION_CHECKS[prop](i, s, negation)


def _check_np(i: ImplicationCandidate, s: SampleSpec, _n=None) -> PropertyReport:
    worst = 0.0
    for y in s.points_1d():
        d = abs(i(1.0, y) - y)
        if d > s.tolerance:
            return failing("NP", s, {"y": y, "value": i(1.0, y)}, d)
        worst = max(worst, d)
    return passing("NP", s, worst)


def _ep_sides(f, x, y, z):
    return f(x, f(y, z)), f(y, f(x, z))


def _t2_sides(f, x, y, z):
    return f(f(x, y), z), f(x, f(y, z))


def _assoc_sides(f, a, b, c):
    return f(a, f(b, c)), f(f(a, b), c)


def _nested_law(prop, sides, fn, triples, s, keys=("x", "y", "z"), holds_as=None):
    """Check that the two sides of a nested law agree within tol on triples.

    ``sides(fn, a, b, c)`` composes the raw fn, so an inner value is never
    clamped or rounded by the operator wrapper.  Each triple is evaluated
    in float; when the float discrepancy exceeds ESCALATE_SHARE * tol, the
    triple is re-evaluated at CHAIN_DPS (rounding a p-th root next to a
    saturation point amplifies the last ulp of a double to ~1e-5) and that
    wide evaluation alone gives the verdict, left/right and witness.  The
    report's ``details.escalations`` counts the re-evaluated triples.
    """
    escalate_above = ESCALATE_SHARE * s.tolerance
    worst = 0.0
    escalations = 0
    for a, b, c in triples:
        left, right = sides(fn, a, b, c)
        d = abs(left - right)
        if not d <= escalate_above:  # a NaN escalates too
            escalations += 1
            with mpmath.workdps(CHAIN_DPS):
                left, right = sides(
                    fn, mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(c)
                )
                left, right = float(left), float(right)
            d = abs(left - right)
            if d > s.tolerance:
                witness = dict(zip(keys, (a, b, c)), left=left, right=right)
                report = failing(prop, s, witness, d)
                break
        worst = max(worst, d)
    else:
        report = passing(holds_as or prop, s, worst)
    report.details = {"escalations": escalations}
    return report


def _check_ep(i: ImplicationCandidate, s: SampleSpec, _n=None) -> PropertyReport:
    return _nested_law("EP", _ep_sides, i.fn, s.triples(), s)


def _check_ip(i: ImplicationCandidate, s: SampleSpec, _n=None) -> PropertyReport:
    worst = 0.0
    for x in s.points_1d():
        d = abs(i(x, x) - 1.0)
        if d > s.tolerance:
            return failing("IP", s, {"x": x, "value": i(x, x)}, d)
        worst = max(worst, d)
    return passing("IP", s, worst)


def _check_op(i: ImplicationCandidate, s: SampleSpec, _n=None) -> PropertyReport:
    worst = 0.0
    for x, y in s.pairs():
        v = i(x, y)
        if x <= y:
            d = abs(v - 1.0)
            if d > s.tolerance:
                return failing(
                    "OP", s,
                    {"x": x, "y": y, "value": v,
                     "direction": "x<=y but I(x,y)<1"},
                    d,
                )
            worst = max(worst, d)
        elif v >= 1.0 - s.tolerance and x > y + OP_SLACK * s.tolerance:
            return failing(
                "OP", s,
                {"x": x, "y": y, "value": v,
                 "direction": "I(x,y)=1 but x>y"},
                x - y,
            )
    return passing("OP", s, worst)


def _check_cp(i: ImplicationCandidate, s: SampleSpec, n: Negation) -> PropertyReport:
    worst = 0.0
    for x, y in s.pairs():
        left = i(x, y)
        right = i(n(y), n(x))
        d = abs(left - right)
        if d > s.tolerance:
            return failing(
                "CP", s,
                {"x": x, "y": y, "left": left, "right": right,
                 "negation": n.label},
                d,
            )
        worst = max(worst, d)
    return passing("CP", s, worst)


_IMPLICATION_CHECKS = {
    "NP": _check_np, "EP": _check_ep, "IP": _check_ip, "OP": _check_op,
    "CP": _check_cp,
}
IMPLICATION_PROPERTIES = tuple(_IMPLICATION_CHECKS)


def check_tnorm_axioms(
    t: BinaryConnective, s: SampleSpec | None = None
) -> PropertyReport:
    """T1 commutativity, T2 associativity, T3 monotonicity, T4 boundary."""
    s = s or SampleSpec()
    report = _tnorm_pair_laws(t, s)
    if report is None:
        return _nested_law(
            "T2", _t2_sides, t.fn, s.triples(), s, holds_as="T1-T4"
        )
    report.details = {"escalations": 0}  # failed before any triple ran
    return report


def _tnorm_pair_laws(t: BinaryConnective, s: SampleSpec) -> PropertyReport | None:
    """The first failing report of T4, T1 and T3, or None."""
    for x in s.points_1d():
        v = t(x, 1.0)
        if abs(v - x) > s.tolerance:
            return failing("T4", s, {"x": x, "y": 1.0, "value": v}, abs(v - x))

    for x, y in s.pairs():
        d = abs(t(x, y) - t(y, x))
        if d > s.tolerance:
            return failing(
                "T1", s, {"x": x, "y": y, "xy": t(x, y), "yx": t(y, x)}, d
            )

    return _second_arg_scan("T3", t, s)


# The triple from the six-branch implication's associativity breakdown is
# always probed so the known counterexample is found head-first, not by
# luck of the grid.
SPECIAL_TRIPLES = [(0.3, 0.35, 0.2)]


def find_associativity_counterexample(
    c: BinaryConnective, s: SampleSpec | None = None
) -> PropertyReport:
    """First sampled triple with C(a, C(b,c)) != C(C(a,b), c)."""
    s = s or SampleSpec()
    return _nested_law(
        "associativity", _assoc_sides, c.fn, SPECIAL_TRIPLES + s.triples(), s,
        keys=("a", "b", "c"),
    )


def compare_surfaces(
    f: BinaryConnective,
    g: BinaryConnective,
    s: SampleSpec | None = None,
) -> PropertyReport:
    """Max |F - G| over the sample pairs, with the argmax point."""
    s = s or SampleSpec()
    worst = -1.0
    arg = None
    for x, y in s.pairs():
        vf, vg = f(x, y), g(x, y)
        d = abs(vf - vg)
        if d > worst:
            worst = d
            arg = {"x": x, "y": y, "left": vf, "right": vg}
    report = (
        passing("surface-compare", s, worst)
        if worst <= s.tolerance
        else failing("surface-compare", s, arg, worst)
    )
    report.details = {"argmax": arg}
    return report


def refine_jump(
    f: Callable[[float], float], a: float, b: float, rounds: int = 3, k: int = 16
) -> tuple[float, float, float]:
    """Largest adjacent jump of f inside [a,b] after recursive subdivision.

    A steep-but-continuous stretch (e.g. a square-root cusp) shrinks its
    adjacent jump as the interval is subdivided; a genuine step keeps it.
    Returns (jump, left_x, right_x) for the final subinterval.
    """
    lo, hi = a, b
    for _ in range(rounds):
        xs = [lo + (hi - lo) * i / k for i in range(k + 1)]
        vals = [f(x) for x in xs]
        best, bi = -1.0, 0
        for i in range(1, len(xs)):
            d = abs(vals[i] - vals[i - 1])
            if d > best:
                best, bi = d, i
        lo, hi = xs[bi - 1], xs[bi]
    return best, lo, hi


def probe_continuity(
    n: Callable[[float], float], s: SampleSpec | None = None
) -> PropertyReport:
    """Heuristic profile of a unary map: continuity, strictness, and
    strongness N(N(x)) = x.

    Continuity compares adjacent grid jumps against 5/grid_n, but any
    offending interval is first refined locally so steep continuous maps
    (root-type cusps) are not mistaken for jumps."""
    s = s or SampleSpec()
    g = s.grid()
    vals = [n(x) for x in g]
    threshold = 5.0 / s.grid_n

    jump = 0.0
    jump_at = None
    for k in range(1, len(g)):
        d = abs(vals[k] - vals[k - 1])
        if d <= threshold:
            continue
        refined, lo, hi = refine_jump(n, g[k - 1], g[k])
        if refined > max(jump, threshold):
            jump = refined
            jump_at = {"x1": lo, "x2": hi, "value1": n(lo), "value2": n(hi)}
    continuous = jump <= threshold

    strict = all(vals[k] < vals[k - 1] for k in range(1, len(g)))
    strong_disc = max(abs(n(n(x)) - x) for x in g)
    strong = strong_disc <= s.tolerance

    details = {
        "continuous": continuous,
        "strict": strict,
        "strong": strong,
        "max_jump": jump,
        "jump_threshold": threshold,
        "involution_discrepancy": strong_disc,
    }
    if continuous:
        report = passing("negation-continuity", s, jump)
    else:
        report = failing("negation-continuity", s, jump_at, jump)
    report.details = details
    return report


def check_negation_axioms(
    n: Negation, s: SampleSpec | None = None
) -> PropertyReport:
    """Endpoints N(0)=1, N(1)=0 and monotone non-increase on samples."""
    s = s or SampleSpec()
    for x, want in ((0.0, 1.0), (1.0, 0.0)):
        got = n(x)
        if abs(got - want) > s.tolerance:
            return failing(
                "negation-endpoint", s,
                {"x": x, "value": got, "expected": want},
                abs(got - want),
            )
    xs = sorted(s.points_1d())
    report = _scan_monotone(
        "negation-monotonicity", s, map(n, xs), xs, False,
        lambda x1, x2: {"x1": x1, "x2": x2},
    )
    return report or passing("negation-definition", s)
