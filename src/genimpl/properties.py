"""Numeric verification of connective and implication laws.

Each check walks a deterministic sample set (grid plus seeded random
points), compares within the configured tolerance, and returns a
witness-carrying report on the first failure.  Witnesses are raw sample
points, so re-evaluating them standalone reproduces the discrepancy.
"""

from __future__ import annotations

import functools
from itertools import chain, repeat
from typing import Callable

from .bijections import Bijection
from .connectives import BinaryConnective, Negation
from .generators import clamp01
from .implications import ImplicationCandidate, chain_eval
from .reports import PropertyReport, SampleSpec, failing, passing

# OP's reverse direction: exact-1 tests are brittle in floating point,
# so a hit is I >= 1 - tol at x > y + 10*tol, confirmed at CHAIN_DPS.
OP_SLACK = 10.0

# Nested laws run in float first; a triple whose float discrepancy exceeds
# this share of the tolerance is re-evaluated at CHAIN_DPS, and only that
# wide evaluation can fail it.
ESCALATE_SHARE = 1 / 16

# refine_jump subdivides an interval into REFINE_POINTS cells, REFINE_ROUNDS times
REFINE_ROUNDS = 3
REFINE_POINTS = 16


def _pointwise_law(prop, s, points, gap, witness):
    """The failing report at the first point whose ``gap(*point)`` exceeds
    tol, else a passing report with the largest gap.  ``witness(*point)``
    evaluates again; the operators are deterministic, so it sees the same
    values as the gap did."""
    worst = 0.0
    for point in points:
        d = gap(*point)
        if d > s.tolerance:
            return failing(prop, s, witness(*point), d)
        worst = max(worst, d)
    return passing(prop, s, worst)


def _scan_monotone(prop, s, values, xs, increasing, coords):
    """The failing report of the first adjacent pair of ``values`` that
    breaks monotonicity by more than tol, or None.  ``values`` are an
    operator's raw ``fn`` evaluated along the sorted points ``xs``; each is
    clamped here as the operator's ``__call__`` would (a NaN stays NaN),
    which spares every cell two calls.  ``coords(x1, x2)`` gives the
    witness coordinates of a breaking pair."""
    tol = s.tolerance
    prev = clamp01(next(values))
    for k, v in enumerate(values, 1):
        cur = 0.0 if v < 0.0 else 1.0 if v > 1.0 else v  # clamp01, inline
        if (cur < prev - tol) if increasing else (cur > prev + tol):
            witness = {**coords(xs[k - 1], xs[k]), "value1": prev, "value2": cur}
            return failing(prop, s, witness, abs(cur - prev))
        prev = cur
    return None


def _scan(prop, op, s, first=False):
    """Monotonicity of op along the sorted samples, on every grid line:
    non-decrease of op(x, .), or with ``first`` non-increase of op(., y)."""
    xs = sorted(s.points_1d())
    for c, values in op.lines(xs, s.grid(), first):
        report = _scan_monotone(
            prop, s, values, xs, not first,
            (lambda x1, x2: {"x1": x1, "x2": x2, "y": c}) if first
            else lambda y1, y2: {"x": c, "y1": y1, "y2": y2},
        )
        if report:
            return report
    return None


def check_implication_axioms(
    i: ImplicationCandidate, s: SampleSpec = SampleSpec()
) -> PropertyReport:
    """Axioms I1 (antitone in x), I2 (monotone in y), I3 (corner values)."""
    # I3 first: three exact corner equalities
    report = _pointwise_law(
        "I3", s, [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (1.0, 1.0, 1.0)],
        lambda x, y, want: abs(i(x, y) - want),
        lambda x, y, want: {"x": x, "y": y, "value": i(x, y), "expected": want},
    )
    if not report.holds:
        return report
    return _scan("I1", i, s, first=True) or _scan("I2", i, s) or passing("I1-I3", s)


def check_second_arg_monotone(
    i: ImplicationCandidate, s: SampleSpec = SampleSpec()
) -> PropertyReport:
    """I2 alone (needed by the class probes)."""
    return _scan("I2", i, s) or passing("I2", s)


def check_property(
    i: ImplicationCandidate,
    prop: str,
    s: SampleSpec = SampleSpec(),
    negation: Negation | None = None,
) -> PropertyReport:
    """One of NP, EP, IP, OP, CP (only CP, which needs it, takes a negation)."""
    validate_law(prop, negation)
    return _IMPLICATION_CHECKS[prop](i, s, negation)


def validate_law(prop: str, negation: Negation | None) -> None:
    """Raise ValueError unless ``check_property`` takes ``prop`` with
    ``negation``: a caller can check every law it will run before it runs one."""
    if prop not in _IMPLICATION_CHECKS:
        raise ValueError(f"unknown property {prop!r}")
    if prop == "CP" and negation is None:
        raise ValueError("CP requires a negation")
    if prop != "CP" and negation is not None:
        raise ValueError(f"{prop} takes no negation")


def _check_np(i: ImplicationCandidate, s: SampleSpec, _n=None) -> PropertyReport:
    return _pointwise_law(
        "NP", s, zip(s.points_1d()),
        lambda y: abs(i(1.0, y) - y),
        lambda y: {"y": y, "value": i(1.0, y)},
    )


def _ep_sides(outer, inner, x, y, z):
    return outer(x, inner(y, z)), outer(y, inner(x, z))


def _t2_sides(outer, inner, x, y, z):
    return outer(inner(x, y), z), outer(x, inner(y, z))


def _assoc_sides(outer, inner, a, b, c):
    return outer(a, inner(b, c)), outer(inner(a, b), c)


def _nested_law(prop, sides, fn, s, keys=("x", "y", "z"), holds_as=None,
                bounds=None, special=()):
    """Check that the two sides of a nested law agree within tol on the
    ``special`` triples, then on ``s.triples()``.

    ``sides(outer, inner, a, b, c)`` composes the raw fn, so an inner value
    is never clamped or rounded by the operator wrapper.  Each triple is
    evaluated in float; when the float discrepancy exceeds ESCALATE_SHARE *
    tol, the triple is re-evaluated at CHAIN_DPS (rounding a p-th root next
    to a saturation point amplifies the last ulp of a double to ~1e-5) and
    that wide evaluation alone gives the verdict, left/right and witness.
    The report's ``details.escalations`` counts the re-evaluated triples.

    Both inner values of a grid triple sit at two grid points, so the n^3
    grid triples (the head of ``s.triples()``) read them from one table
    over the n x n grid pairs, filled at a pair's first use: a grid triple
    costs two outer evaluations, and no evaluation runs that a triple did
    not ask for.  The special and random triples evaluate all four.

    With ``bounds`` (an operator's enclosure, see BinaryConnective) the
    float pass encloses both sides instead, nesting only in the second
    argument as EP does: inner is bounds(p, q, q), outer bounds(u, lo, hi)
    of an inner (lo, hi), and the discrepancy is the bound
    U = max(L_hi - R_lo, R_hi - L_lo) on the true one.
    """
    escalate_above = ESCALATE_SHARE * s.tolerance
    worst = 0.0
    escalations = 0
    if bounds is None:
        outer = inner = fn
    else:
        outer = lambda u, v: bounds(u, *v)  # noqa: E731
        inner = lambda p, q: bounds(p, q, q)  # noqa: E731
    triples = s.triples()
    n3 = s.triple_grid_n ** 3
    plan = chain(zip(repeat(inner), special),
                 zip(repeat(functools.cache(inner)), triples[:n3]),
                 zip(repeat(inner), triples[n3:]))
    for read, (a, b, c) in plan:
        left, right = sides(outer, read, a, b, c)
        if bounds is None:
            d = abs(left - right)
        else:
            (l_lo, l_hi), (r_lo, r_hi) = left, right
            d = max(l_hi - r_lo, r_hi - l_lo)
        if not d <= escalate_above:  # a NaN escalates too
            escalations += 1
            left, right = map(float, chain_eval(functools.partial(sides, fn, fn), a, b, c))
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
    return _nested_law("EP", _ep_sides, i.fn, s, bounds=i.bounds)


def _check_ip(i: ImplicationCandidate, s: SampleSpec, _n=None) -> PropertyReport:
    return _pointwise_law(
        "IP", s, zip(s.points_1d()),
        lambda x: abs(i(x, x) - 1.0),
        lambda x: {"x": x, "value": i(x, x)},
    )


def _check_op(i: ImplicationCandidate, s: SampleSpec, _n=None) -> PropertyReport:
    tol = s.tolerance

    def gap(x, y):
        v = i(x, y)
        if x <= y:
            return abs(v - 1.0)
        if not (v >= 1.0 - tol and x > y + OP_SLACK * tol):
            return 0.0
        # reverse direction: a continuous I comes within tol of 1 just past
        # the diagonal, so the hit stands only if the unrounded wide value
        # is 1; x - y then exceeds 10*tol > tol
        return x - y if chain_eval(i, x, y) >= 1 else 0.0

    def witness(x, y):
        direction = "x<=y but I(x,y)<1" if x <= y else "I(x,y)=1 but x>y"
        return {"x": x, "y": y, "value": i(x, y), "direction": direction}

    return _pointwise_law("OP", s, s.iter_pairs(), gap, witness)


def _check_cp(i: ImplicationCandidate, s: SampleSpec, n: Negation) -> PropertyReport:
    return _pointwise_law(
        "CP", s, s.iter_pairs(),
        lambda x, y: abs(i(x, y) - i(n(y), n(x))),
        lambda x, y: {"x": x, "y": y, "left": i(x, y), "right": i(n(y), n(x)),
                      "negation": n.label},
    )


_IMPLICATION_CHECKS = {
    "NP": _check_np, "EP": _check_ep, "IP": _check_ip, "OP": _check_op,
    "CP": _check_cp,
}


def check_tnorm_axioms(
    t: BinaryConnective, s: SampleSpec = SampleSpec()
) -> PropertyReport:
    """T1 commutativity, T2 associativity, T3 monotonicity, T4 boundary."""
    report = _tnorm_pair_laws(t, s)
    if report is None:
        return _nested_law("T2", _t2_sides, t.fn, s, holds_as="T1-T4")
    report.details = {"escalations": 0}  # failed before any triple ran
    return report


def _tnorm_pair_laws(t: BinaryConnective, s: SampleSpec) -> PropertyReport | None:
    """The first failing report of T4, T1 and T3, or None."""
    report = _pointwise_law(
        "T4", s, zip(s.points_1d()),
        lambda x: abs(t(x, 1.0) - x),
        lambda x: {"x": x, "y": 1.0, "value": t(x, 1.0)},
    )
    if report.holds:
        report = _check_t1(t, s)
    return _scan("T3", t, s) if report.holds else report


def _check_t1(t: BinaryConnective, s: SampleSpec) -> PropertyReport:
    """T1 on each grid pair above the diagonal, then on the random pairs:
    the report of the same check over ``s.pairs()``.  The gap is symmetric,
    so in that order a grid pair below the diagonal never fails first (its
    mirror came earlier), and a pair on the diagonal has gap 0 (or NaN,
    which neither fails nor enters the maximum).  The grid values come from
    ``t.table``, the diagonal's too; each point carries (x, y, T(x, y),
    T(y, x)), and the witness evaluates T again."""
    g = s.grid()
    rows = t.table(g)
    upper = ((g[a], g[b], rows[a][b], rows[b][a])
             for a in range(len(g)) for b in range(a + 1, len(g)))
    return _pointwise_law(
        "T1", s, chain(upper, ((x, y, t(x, y), t(y, x)) for x, y in s.random_pairs())),
        lambda x, y, xy, yx: abs(xy - yx),
        lambda x, y, xy, yx: {"x": x, "y": y, "xy": t(x, y), "yx": t(y, x)},
    )


# The triple from the six-branch implication's associativity breakdown is
# always probed so the known counterexample is found head-first, not by
# luck of the grid.
SPECIAL_TRIPLES = [(0.3, 0.35, 0.2)]


def find_associativity_counterexample(
    c: BinaryConnective, s: SampleSpec = SampleSpec()
) -> PropertyReport:
    """First sampled triple with C(a, C(b,c)) != C(C(a,b), c)."""
    return _nested_law(
        "associativity", _assoc_sides, c.fn, s, keys=("a", "b", "c"),
        special=SPECIAL_TRIPLES,
    )


def compare_surfaces(
    f: BinaryConnective,
    g: BinaryConnective,
    s: SampleSpec = SampleSpec(),
) -> PropertyReport:
    """Max |F - G| over the sample pairs, with the argmax point."""
    worst = -1.0
    arg = None
    for x, y in s.iter_pairs():
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


def refine_jump(f: Callable[[float], float], a: float, b: float) -> tuple[float, float, float]:
    """Largest adjacent jump of f inside [a,b] after recursive subdivision.

    A steep-but-continuous stretch (e.g. a square-root cusp) shrinks its
    adjacent jump as the interval is subdivided; a genuine step keeps it.
    Returns (jump, left_x, right_x) for the final subinterval.
    """
    lo, hi = a, b
    for _ in range(REFINE_ROUNDS):
        xs = [lo + (hi - lo) * i / REFINE_POINTS for i in range(REFINE_POINTS + 1)]
        vals = [f(x) for x in xs]
        best, bi = -1.0, 0
        for i in range(1, len(xs)):
            d = abs(vals[i] - vals[i - 1])
            if d > best:
                best, bi = d, i
        lo, hi = xs[bi - 1], xs[bi]
    return best, lo, hi


def probe_continuity(
    n: Callable[[float], float], s: SampleSpec = SampleSpec()
) -> PropertyReport:
    """Heuristic profile of a unary map: continuity, strictness, and
    strongness N(N(x)) = x.

    Continuity compares adjacent grid jumps against 5/grid_n, but any
    offending interval is first refined locally so steep continuous maps
    (root-type cusps) are not mistaken for jumps."""
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
    strong_disc = max(abs(n(v) - x) for x, v in zip(g, vals))  # v = n(x)
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
    n: Negation, s: SampleSpec = SampleSpec()
) -> PropertyReport:
    """Endpoints N(0)=1, N(1)=0 and monotone non-increase on samples."""
    report = _pointwise_law(
        "negation-endpoint", s, ((0.0, 1.0), (1.0, 0.0)),
        lambda x, want: abs(n(x) - want),
        lambda x, want: {"x": x, "value": n(x), "expected": want},
    )
    if not report.holds:
        return report
    xs = sorted(s.points_1d())
    report = _scan_monotone(
        "negation-monotonicity", s, map(n.fn, xs), xs, False,
        lambda x1, x2: {"x1": x1, "x2": x2},
    )
    return report or passing("negation-definition", s)


def check_self_dual_phi(
    phi: Bijection, s: SampleSpec = SampleSpec()
) -> PropertyReport:
    """phi(x) + phi(1-x) = 1 on samples: the condition under which the
    conjugate's natural negation collapses to the standard negation."""
    return _pointwise_law(
        "phi-self-dual", s, zip(s.points_1d()),
        lambda x: abs(phi.forward(x) + phi.forward(1.0 - x) - 1.0),
        lambda x: {"x": x, "phi_x": phi.forward(x),
                   "phi_1mx": phi.forward(1.0 - x)},
    )
