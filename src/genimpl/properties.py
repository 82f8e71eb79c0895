"""Numeric verification of connective and implication laws.

Each check walks a deterministic sample set (grid plus seeded random
points), compares within the configured tolerance, and returns a
witness-carrying report on the first failure.  Witnesses are raw sample
points, so re-evaluating them standalone reproduces the discrepancy.
"""

from __future__ import annotations

import functools
from itertools import chain, islice, repeat
from operator import sub
from typing import Callable

from .bijections import Bijection
from .connectives import BinaryConnective, Negation
from .implications import ImplicationCandidate, chain_eval
from .reports import PropertyReport, SampleSpec, failing, passing

# OP's reverse direction: exact-1 tests are brittle in floating point,
# so a hit is I >= 1 - tol at x > y + 10*tol, confirmed at CHAIN_DPS.
OP_SLACK = 10.0

# Nested laws run in float first; a triple whose float discrepancy exceeds
# this share of the tolerance is re-evaluated at CHAIN_DPS, and only that
# wide evaluation can fail it.
ESCALATE_SHARE = 1 / 16

# Nested laws read their special and random triples as columns of this
# many: few enough to stream a plan, enough to pay a block's set-up rarely.
_TRIPLE_BLOCK = 128

# refine_jump subdivides an interval into REFINE_POINTS cells, REFINE_ROUNDS times
REFINE_ROUNDS = 3
REFINE_POINTS = 16


def _pointwise_law(prop, s, points, gap, witness):
    """The failing report at the first point whose ``gap(*point)`` exceeds
    tol, else a passing report with the largest gap.  ``witness(*point)``
    evaluates again; the operators are deterministic, so it sees the same
    values as the gap did.  A gap is never negative, and the running worst
    never exceeds tol, so one comparison settles a gap that is not above
    it; a NaN gap neither fails nor counts."""
    tol = s.tolerance
    worst = 0.0
    for point in points:
        d = gap(*point)
        if d > worst:
            if d > tol:
                return failing(prop, s, witness(*point), d)
            worst = d
    return passing(prop, s, worst)


def _pair_values(op, s):
    """(x, y, op(x, y)) for each pair of ``s.pairs()``, in its order.  The
    grid rows are read through ``op.lines``; a row is lazy, so a check that
    stops at a pair evaluates no cell past it.  The random pairs call op."""
    g = s.grid()
    return chain(
        chain.from_iterable(zip(repeat(x), g, values) for x, values in op.lines(g, g)),
        ((x, y, op(x, y)) for x, y in s.random_pairs()))


def _line_values(op, s, c, first=False):
    """(t, op(c, t)) for each t of ``s.points_1d()`` in its order, or with
    ``first`` (t, op(t, c)): one line through ``op.lines``."""
    points = s.points_1d()
    (_, values), = op.lines(points, (c,), first)
    return zip(points, values)


def _scan_monotone(prop, s, values, xs, increasing, coords):
    """The failing report of the first adjacent pair of ``values`` that
    breaks monotonicity by more than tol, or None.  ``values`` are an
    operator's values, as its ``__call__`` returns them, along the sorted
    points ``xs``.  ``coords(x1, x2)`` gives the witness coordinates of a
    breaking pair."""
    tol = s.tolerance
    prev = next(values)
    for k, cur in enumerate(values, 1):
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
    """NP, I(1, y) = y, along the line x = 1."""
    return _pointwise_law(
        "NP", s, _line_values(i, s, 1.0),
        lambda y, v: abs(v - y),
        lambda y, v: {"y": y, "value": i(1.0, y)},
    )


# A nested law is a pair of nestings of one operator op, its left side
# first.  A nesting is RIGHT, op(x, op(y, z)), LEFT, op(op(x, y), z), or
# SWAP, RIGHT with x and y exchanged; each walker gives the three on its
# own lines, in this order.
_RIGHT, _LEFT, _SWAP = range(3)
_NESTED_LAWS = {"EP": (_RIGHT, _SWAP), "T2": (_LEFT, _RIGHT), "associativity": (_RIGHT, _LEFT)}


def _sides(law, nestings):
    """The two sides of ``law``, from a walker's (RIGHT, LEFT, SWAP)."""
    return [nestings[k] for k in law]


def _gaps(left, right):
    return map(abs, map(sub, left, right))


def _enclosure_gap(left, right):
    """The bound max(L_hi - R_lo, R_hi - L_lo) on the gap of two enclosures."""
    return max(left[1] - right[0], right[1] - left[0])


def _grid_blocks(law, parts, lines, g, gaps):
    """For each grid pair (x, y) = (g[i], g[j]), x-major, the lazy (x, y, z,
    gap) of the triples over z in g, each side a line of its nesting at (i, j).
    The inner values op(g[j], z) are held in rows, row j filled at (0, j),
    its first use; a grid triple then evaluates two outer cells.  Without
    parts a row is an inner line of ``lines`` = (outer, inner), the lines
    the pointwise triples are read through.  With parts (u, v, cell), u and
    v are taken once per grid point, a row keeps v of each inner value for
    RIGHT, and LEFT takes u of its one inner value."""
    rows = []
    if parts is None:
        outer, inner = lines

        def fill(j):
            return list(inner(repeat(g[j]), g))

        def right(i, j):
            return outer(repeat(g[i]), rows[j])

        def left(i, j):
            return outer(repeat(rows[i][j]), g)
    else:
        u, v, cell = parts
        us, vs = list(map(u, g)), list(map(v, g))

        def fill(j):
            w = list(map(cell, repeat(us[j]), vs, repeat(g[j]), g))
            return w, list(map(v, w))

        def right(i, j):
            w, vw = rows[j]
            return map(cell, repeat(us[i]), vw, repeat(g[i]), w)

        def left(i, j):
            w = rows[i][0][j]
            return map(cell, repeat(u(w)), vs, repeat(w), g)
    lhs, rhs = _sides(law, (right, left, lambda i, j: right(j, i)))
    for i, x in enumerate(g):
        for j, y in enumerate(g):
            if i == 0:
                rows.append(fill(j))
            yield zip(repeat(x), repeat(y), g, gaps(lhs(i, j), rhs(i, j)))


def _nested_law(prop, op, s, keys=("x", "y", "z"), holds_as=None, special=()):
    """Check that the two sides of the nested law ``prop`` agree within tol
    on the ``special`` triples, then on ``s.triples()``.

    The sides compose the raw fn, so an inner value is never clamped or
    rounded by the operator wrapper.  Each triple is evaluated in float;
    when the float discrepancy exceeds ESCALATE_SHARE * tol, the triple is
    re-evaluated at CHAIN_DPS (rounding a p-th root next to a saturation
    point amplifies the last ulp of a double to ~1e-5) and that wide
    evaluation alone gives the verdict, left/right and witness.  The
    report's ``details.escalations`` counts the re-evaluated triples.

    Both sides are lines: along columns of the special and random triples,
    and over z on the n^3 grid triples (the head of ``s.triples()``)
    through ``_grid_blocks``, which evaluates each inner value once: a grid
    triple costs two outer evaluations, the others all four.

    A law without a LEFT nesting nests only in the second argument, so
    there the float pass reads ``op.bounds`` where op has it (an enclosure,
    see BinaryConnective): inner is bounds(p, q, q), outer bounds(u, lo, hi)
    of an inner (lo, hi), and the discrepancy is the bound
    U = max(L_hi - R_lo, R_hi - L_lo) on the true one.
    """
    tol = s.tolerance
    escalate_above = ESCALATE_SHARE * tol
    law = _NESTED_LAWS[prop]
    bounds = None if _LEFT in law else op.bounds
    fn_lines = (functools.partial(map, op.fn),) * 2
    if bounds is None:
        lines, parts, gaps = fn_lines, op.parts, _gaps
    else:  # the lines outer(xs, vs) and inner(ys, zs); vs are the columns (lo, hi)
        lines = (lambda xs, vs: map(bounds, xs, *vs),
                 lambda ys, zs: zip(*map(bounds, ys, zs, zs)))
        parts, gaps = None, functools.partial(map, _enclosure_gap)

    def nestings(outer, inner):  # RIGHT, LEFT and SWAP along columns x, y, z
        def right(x, y, z):
            return outer(x, inner(y, z))
        return right, lambda x, y, z: outer(inner(x, y), z), lambda x, y, z: right(y, x, z)

    lhs, rhs = _sides(law, nestings(*lines))

    def blocks(triples):  # streamed, as columns of up to _TRIPLE_BLOCK triples
        triples = iter(triples)
        while block := list(islice(triples, _TRIPLE_BLOCK)):
            x, y, z = zip(*block)
            yield zip(x, y, z, gaps(lhs(x, y, z), rhs(x, y, z)))

    def wide_sides(a, b, c):  # each side a line of one value
        return [v for side in _sides(law, nestings(*fn_lines)) for v in side((a,), (b,), (c,))]

    worst, escalations = 0.0, 0
    for a, b, c, d in chain.from_iterable(chain(
            blocks(special), _grid_blocks(law, parts, lines, s.triple_grid(), gaps),
            blocks(s.random_triples()))):
        if not d <= escalate_above:  # a NaN escalates too
            escalations += 1
            left, right = map(float, chain_eval(wide_sides, a, b, c))
            d = abs(left - right)
            if d > tol:
                witness = dict(zip(keys, (a, b, c)), left=left, right=right)
                report = failing(prop, s, witness, d)
                break
        if d > worst:
            worst = d
    else:
        report = passing(holds_as or prop, s, worst)
    report.details = {"escalations": escalations}
    return report


def _check_ep(i: ImplicationCandidate, s: SampleSpec, _n=None) -> PropertyReport:
    return _nested_law("EP", i, s)


def _check_ip(i: ImplicationCandidate, s: SampleSpec, _n=None) -> PropertyReport:
    return _pointwise_law(
        "IP", s, zip(s.points_1d()),
        lambda x: abs(i(x, x) - 1.0),
        lambda x: {"x": x, "value": i(x, x)},
    )


def _check_op(i: ImplicationCandidate, s: SampleSpec, _n=None) -> PropertyReport:
    tol = s.tolerance

    def gap(x, y, v):  # v = I(x, y)
        if x <= y:
            return abs(v - 1.0)
        if not (v >= 1.0 - tol and x > y + OP_SLACK * tol):
            return 0.0
        # reverse direction: a continuous I comes within tol of 1 just past
        # the diagonal, so the hit stands only if the unrounded wide value
        # is 1; x - y then exceeds 10*tol > tol
        return x - y if chain_eval(i, x, y) >= 1 else 0.0

    def witness(x, y, v):
        direction = "x<=y but I(x,y)<1" if x <= y else "I(x,y)=1 but x>y"
        return {"x": x, "y": y, "value": i(x, y), "direction": direction}

    return _pointwise_law("OP", s, _pair_values(i, s), gap, witness)


def _check_cp(i: ImplicationCandidate, s: SampleSpec, n: Negation) -> PropertyReport:
    """CP, its left side I(x, y) read with the pairs, its right side pointwise."""
    return _pointwise_law(
        "CP", s, _pair_values(i, s),
        lambda x, y, v: abs(v - i(n(y), n(x))),
        lambda x, y, v: {"x": x, "y": y, "left": i(x, y), "right": i(n(y), n(x)),
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
        return _nested_law("T2", t, s, holds_as="T1-T4")
    report.details = {"escalations": 0}  # failed before any triple ran
    return report


def _tnorm_pair_laws(t: BinaryConnective, s: SampleSpec) -> PropertyReport | None:
    """The first failing report of T4, T1 and T3, or None."""
    report = _check_t4(t, s)
    if report.holds:
        report = _check_t1(t, s)
    return _scan("T3", t, s) if report.holds else report


def _check_t4(t: BinaryConnective, s: SampleSpec) -> PropertyReport:
    """T4, T(x, 1) = x, along the line y = 1."""
    return _pointwise_law(
        "T4", s, _line_values(t, s, 1.0, first=True),
        lambda x, v: abs(v - x),
        lambda x, v: {"x": x, "y": 1.0, "value": t(x, 1.0)},
    )


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
    return _nested_law("associativity", c, s, keys=("a", "b", "c"), special=SPECIAL_TRIPLES)


def compare_surfaces(
    f: BinaryConnective,
    g: BinaryConnective,
    s: SampleSpec = SampleSpec(),
) -> PropertyReport:
    """Max |F - G| over the sample pairs, with the argmax point; both
    surfaces are read with the pairs."""
    worst = -1.0
    arg = None
    for (x, y, vf), (_, _, vg) in zip(_pair_values(f, s), _pair_values(g, s)):
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
        "negation-monotonicity", s, map(n, xs), xs, False,
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
