"""The monotone scans evaluate an operator's raw ``fn``, or its ``parts``,
and clamp inline, and the constructors resolve family, direction and
constants once: every value and report must stay what the per-call
wrappers gave."""

import math
import sys
from itertools import product

import mpmath
import pytest

from genimpl.bijections import identity_bijection, power_bijection
from genimpl.classes import _right_continuity, conjugate_lk_probe, r_probe
from genimpl.connectives import (
    BinaryConnective,
    Negation,
    basic,
    dual_of,
    lukasiewicz_implication,
    generated_tconorm_connective,
    generated_tnorm_connective,
    standard_negation,
    t_drastic,
    table_negation,
    yager_connective,
    yager_negation,
    yager_residual_candidate,
)
from genimpl.generators import (
    DECREASING,
    INCREASING,
    DomainError,
    Generator,
    clamp01,
    neg_log,
    piecewise_f,
    power_gp,
    pseudo_inverse,
    root,
    table_generator,
    yager_f,
)
from genimpl.implications import (
    CHAIN_DPS,
    build_intersection_member,
    ig_candidate,
    ign_candidate,
    mean_residual,
    phi_conjugate_candidate,
    residual_candidate,
    sn_candidate,
)
from genimpl.properties import (
    SPECIAL_TRIPLES,
    _check_t1,
    check_implication_axioms,
    check_negation_axioms,
    check_property,
    check_tnorm_axioms,
    compare_surfaces,
    find_associativity_counterexample,
)
from genimpl.reports import SampleSpec

PAIRS = SampleSpec().pairs()
MPF_PAIRS = SampleSpec(grid_n=5, random_count=25, seed=3).pairs()  # 50 points


# The per-call formulas each closure replaces, written as they were.


def yager_formula(p, x, y):
    if p == 0.0:
        return t_drastic(x, y)
    if math.isinf(p):
        return min(x, y)
    if y == 1.0:
        return x
    if x == 1.0:
        return y
    s = (1.0 - x) ** p + (1.0 - y) ** p
    if s >= 1.0:
        return 0.0
    return max(0.0, 1.0 - root(s, p))


def tnorm_formula(f, x, y):
    v = pseudo_inverse(f, f.fn(x) + f.fn(y))
    return x if y == 1.0 else y if x == 1.0 else v


def generated_residual_formula(f, x, y):
    if x <= y:
        return 1.0
    if x == 1.0:
        return y
    return pseudo_inverse(f, max(f.fn(y) - f.fn(x), 0.0))


def tconorm_formula(g, x, y):
    v = pseudo_inverse(g, g.fn(x) + g.fn(y))
    return x if y == 0.0 else y if x == 0.0 else v


def intersection_formula(phi, x, y):
    return clamp01(phi.inverse(min(1.0 - phi.forward(x) + phi.forward(y), 1.0)))


def yager_residual_formula(p, x, y):
    b, a = (1.0 - x) ** p, (1.0 - y) ** p
    d = a - b
    if isinstance(d, float) and a < sys.float_info.min and y < 1.0:
        if x <= y:
            return 1.0
        m = 1.0 - y
        d = 1.0 - ((1.0 - x) / m) ** p
        return y if x == 1.0 else clamp01(1.0 - m * root(d, p))
    if d <= 0.0:
        return 1.0
    if x == 1.0:
        return y
    return clamp01(1.0 - root(d, p))


def sn_formula(s, n, x, y):
    return s(n(x), y)


def conjugate_formula(i, phi, x, y):
    return clamp01(phi.inverse(i(phi.forward(x), phi.forward(y))))


BASIC_FORMULAS = {
    "min": (lambda x, y: min(x, y), lambda x, y: 1.0 if x <= y else y),
    "product": (lambda x, y: x * y, lambda x, y: 1.0 if x <= y else y / x),
    "lukasiewicz": (lambda x, y: max(0.0, x - (1.0 - y)), lambda x, y: min(1.0 - x + y, 1.0)),
    "drastic": (t_drastic, lambda x, y: 1.0 if x < 1.0 else y),
}


LUKASIEWICZ = residual_candidate(basic("lukasiewicz"))
TABLE_F = table_generator(DECREASING, [(0.0, 1.0), (0.5, 0.3), (1.0, 0.0)])
TABLE_G = table_generator(INCREASING, [(0.0, 0.0), (0.5, 0.3), (1.0, 1.0)])

CASES = [
    *((f"yager {p}", yager_connective(p), lambda x, y, p=p: yager_formula(p, x, y))
      for p in (0.0, 0.5, 2.0, 3.7, math.inf)),
    *((f"T[{f.label}]", generated_tnorm_connective(f),
       lambda x, y, f=f: tnorm_formula(f, x, y))
      for f in (yager_f(0.5), yager_f(2.0), yager_f(3.7), TABLE_F)),
    *((f"R[T[{f.label}]]", residual_candidate(generated_tnorm_connective(f)),
       lambda x, y, f=f: generated_residual_formula(f, x, y))
      for f in (yager_f(0.5), yager_f(2.0), yager_f(3.7), TABLE_F)),
    *((f"S[{g.label}]", generated_tconorm_connective(g),
       lambda x, y, g=g: tconorm_formula(g, x, y))
      for g in (power_gp(2.0), neg_log(), piecewise_f(), TABLE_G)),
    *((f"I_phi[{phi.label}]", build_intersection_member(phi),
       lambda x, y, phi=phi: intersection_formula(phi, x, y))
      for phi in (identity_bijection(), power_bijection(0.5), power_bijection(2.0),
                  power_bijection(3.0))),
    *((f"I_TY({p})", yager_residual_candidate(p),
       lambda x, y, p=p: yager_residual_formula(p, x, y))
      for p in (0.5, 2.0, 3.7, 1000.0)),
    *((f"basic {kind}", basic(kind), tnorm) for kind, (tnorm, _) in BASIC_FORMULAS.items()),
    *((f"R[basic {kind}]", residual_candidate(basic(kind)), residual)
      for kind, (_, residual) in BASIC_FORMULAS.items()),
    *((f"SN[{s.label},{n.label}]", sn_candidate(s, n),
       lambda x, y, s=s, n=n: sn_formula(s, n, x, y))
      for s in (dual_of(basic("min")), generated_tconorm_connective(neg_log()))
      for n in (standard_negation(), yager_negation(2.0))),
    ("sn_implication", sn_candidate(dual_of(basic("product")), standard_negation()),
     lambda x, y: sn_formula(dual_of(basic("product")), standard_negation(), x, y)),
    *((f"conj[{i.label},{phi.label}]", phi_conjugate_candidate(i, phi),
       lambda x, y, i=i, phi=phi: conjugate_formula(i, phi, x, y))
      for i in (LUKASIEWICZ, yager_residual_candidate(2.0))
      for phi in (power_bijection(0.5), power_bijection(3.0))),
    ("phi_conjugate", phi_conjugate_candidate(LUKASIEWICZ, power_bijection(2.0)),
     lambda x, y: conjugate_formula(LUKASIEWICZ, power_bijection(2.0), x, y)),
]


@pytest.mark.parametrize("name, op, formula", CASES, ids=[c[0] for c in CASES])
def test_fn_equals_its_formula_bit_for_bit(name, op, formula):
    assert len(PAIRS) > 10_000
    for x, y in PAIRS:
        v, want = op.fn(x, y), formula(x, y)
        assert v == want and type(v) is type(want), (x, y)
    with mpmath.workdps(CHAIN_DPS):
        for x, y in MPF_PAIRS:
            v, want = op.fn(mpmath.mpf(x), mpmath.mpf(y)), formula(mpmath.mpf(x), mpmath.mpf(y))
            assert v == want and type(v) is type(want), (x, y)


# The generated connectives write pseudo_inverse out on a double sum; it
# must still reject a negative or NaN sum, with pseudo_inverse's message.
# f(x) = 0.5 - x is decreasing with f(1) < 0, and g(x) = 2x increasing,
# negative below 0.
BELOW_ZERO = (Generator(DECREASING, lambda x: 0.5 - x, lambda y: 0.5 - y, "f(1)<0"),
              Generator(INCREASING, lambda x: 2.0 * x, lambda y: 0.5 * y, "2x"))


@pytest.mark.parametrize("build, g, x, y, s", [
    (generated_tnorm_connective, BELOW_ZERO[0], 0.9, 0.8, (0.5 - 0.9) + (0.5 - 0.8)),
    (generated_tnorm_connective, BELOW_ZERO[0], math.nan, 0.5, math.nan),
    (lambda f: residual_candidate(generated_tnorm_connective(f)), yager_f(2.0),
     0.7, math.nan, math.nan),
    (generated_tconorm_connective, BELOW_ZERO[1], -0.5, 0.2, -0.6),
    (generated_tconorm_connective, power_gp(2.0), 0.5, math.nan, math.nan),
], ids=["tnorm negative", "tnorm nan", "residual nan", "tconorm negative", "tconorm nan"])
def test_generated_cells_reject_a_sum_outside_the_domain(build, g, x, y, s):
    with pytest.raises(DomainError) as want:
        pseudo_inverse(g, s)
    with pytest.raises(DomainError) as got:
        build(g).fn(x, y)
    assert str(got.value) == str(want.value)


# lukasiewicz_implication and mean_residual write min and max out; each
# must give what the builtins gave, bit for bit, -0.0 and NaN included
EDGES = (math.nan, 0.0, -0.0, -1e-300, -0.5, 0.5, 1.0, 1.5, math.inf, -math.inf)


@pytest.mark.parametrize("fn, builtin", [
    (lukasiewicz_implication, lambda x, y: min(1.0 - x + y, 1.0)),
    (mean_residual, lambda x, y: math.sqrt(min(max(2.0 * y * y - x * x, 0.0), 1.0))),
], ids=["lukasiewicz_implication", "mean_residual"])
def test_written_out_min_and_max_match_the_builtins(fn, builtin):
    for x, y in [*PAIRS, *product(EDGES, repeat=2)]:
        v, want = fn(x, y), builtin(x, y)
        assert repr(v) == repr(want) and type(v) is type(want), (x, y)


# I^g is I^g_N at the standard negation: the same chain, part for part,
# and it alone carries the float enclosure.

IG_GENERATORS = (power_gp(2.0), TABLE_G)


@pytest.mark.parametrize("g", IG_GENERATORS, ids=[g.label for g in IG_GENERATORS])
def test_ig_is_ign_at_the_standard_negation(g):
    ig, ign = ig_candidate(g), ign_candidate(g, standard_negation())
    assert ig.label == f"Ig[{g.label}]" and ign.label == f"IgN[{g.label},N_standard]"
    assert ig.bounds is not None and ign.bounds is None
    lo, hi = ig.bounds(0.3, 0.2, 0.4)
    assert lo <= ig.fn(0.3, 0.2) <= ig.fn(0.3, 0.4) <= hi
    point, point_n = ig_candidate(g).fn, ign_candidate(g, standard_negation()).fn
    for x, y in PAIRS:
        got = ig.fn(x, y)
        assert type(got) is float and got == ign.fn(x, y), (x, y)
    (u, v, cell), (u_n, v_n, cell_n) = ig.parts, ign.parts
    pairs = [*PAIRS[::100], *((mpmath.mpf(x), mpmath.mpf(y)) for x, y in MPF_PAIRS)]
    for x, y in pairs:
        want = ig.fn(x, y)
        for got in (point(x, y), point_n(x, y)):
            assert got == want and type(got) is type(want), (x, y)
        for want, got in ((u_n(x), u(x)), (v_n(y), v(y)), (ign.fn(x, y), ig.fn(x, y)),
                          (cell_n(u(x), v(y), x, y), cell(u(x), v(y), x, y))):
            assert got == want and type(got) is type(want), (x, y)


# Operators whose raw values leave [0,1] or are NaN: the scans must clamp
# them exactly as __call__ does.  Each raw map below is symmetric; it is
# wrapped so that the pointwise laws checked before the scans (I3; T4 and
# T1) hold, and the scans see it.

NAN = math.nan
ABOVE, BELOW = 1.0 + 1e-12, -1e-12

RAW = {
    "above": lambda x, y: ABOVE,
    "below": lambda x, y: BELOW,
    "nan": lambda x, y: NAN,
    # raw, these break I1 and T3 by 1e-8 > tol; clamped, they are constant
    "above rising": lambda x, y: 1.0 + 1e-8 * (x + y),
    "below falling": lambda x, y: -1e-8 if x + y > 1.0 else 0.0,
    "below then above": lambda x, y: BELOW if x + y < 1.0 else ABOVE,
    "above then below": lambda x, y: ABOVE if x + y < 1.0 else BELOW,
    "nan then step": lambda x, y: NAN if x + y < 0.6 else BELOW if x + y < 1.2 else ABOVE,
}


def implication_like(raw):
    """raw, with the corner values I3 asks for."""
    corners = {(1.0, 0.0): 0.0, (0.0, 0.0): 1.0, (1.0, 1.0): 1.0}
    return lambda x, y: corners.get((x, y), raw(x, y))


def tnorm_like(raw):
    """raw, with 1 as neutral element (T4)."""
    return lambda x, y: x if y == 1.0 else y if x == 1.0 else raw(x, y)


CLAMP_CASES = [
    (check, wrap, raw) for check, wrap in ((check_implication_axioms, implication_like),
                                           (check_tnorm_axioms, tnorm_like))
    for raw in RAW.values()
]


@pytest.mark.parametrize("check, wrap, raw", CLAMP_CASES, ids=[
    f"{check.__name__}-{name}" for check in (check_implication_axioms, check_tnorm_axioms)
    for name in RAW])
def test_binary_scans_clamp_as_call_does(check, wrap, raw, small_spec):
    op = BinaryConnective(wrap(raw), "raw")
    called = BinaryConnective(op.__call__, "raw")  # its fn clamps already
    report = check(op, small_spec)
    assert report.property not in ("I3", "T4", "T1")  # the scans ran
    assert report.to_json() == check(called, small_spec).to_json()


UNARY = {
    "above then below": lambda x: ABOVE if x < 0.5 else BELOW,
    "nan inside": lambda x: ABOVE if x == 0.0 else BELOW if x == 1.0 else NAN,
    "rises past the middle": lambda x: (
        ABOVE if x < 0.2 else BELOW if x < 0.6 else ABOVE if x < 1.0 else BELOW),
    # raw, this breaks monotonicity by 1e-8 > tol; clamped, it is constant
    "above rising": lambda x: 1.0 + 1e-8 * x if x < 1.0 else BELOW,
}


@pytest.mark.parametrize("fn", UNARY.values(), ids=UNARY)
def test_negation_scan_clamps_as_call_does(fn, small_spec):
    n = Negation(fn, "raw")
    called = Negation(n.__call__, "raw")
    report = check_negation_axioms(n, small_spec)
    assert report.property != "negation-endpoint"
    assert report.to_json() == check_negation_axioms(called, small_spec).to_json()


def test_clamped_values_decide_and_witness(small_spec):
    s = small_spec
    # a raw rise above 1 is no rise
    assert check_implication_axioms(BinaryConnective(
        implication_like(RAW["above rising"]), "raw"), s).holds
    assert check_tnorm_axioms(BinaryConnective(tnorm_like(RAW["below falling"]), "raw"),
                              s).property == "T1-T4"
    assert check_negation_axioms(Negation(UNARY["above rising"], "raw"), s).holds
    # the witness carries the clamped values, not the raw ones
    for report in (
        check_implication_axioms(BinaryConnective(
            implication_like(RAW["below then above"]), "raw"), s),
        check_tnorm_axioms(BinaryConnective(tnorm_like(RAW["above then below"]), "raw"), s),
        check_negation_axioms(Negation(UNARY["rises past the middle"], "raw"), s),
    ):
        assert report.property in ("I1", "T3", "negation-monotonicity")
        w = report.witness
        assert {w["value1"], w["value2"]} == {0.0, 1.0}


# Evaluation counts: a scan makes exactly one evaluation per cell.


class Counting:
    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


def nested_evaluations(s):
    """fn evaluations of a nested law that passes with no escalation, on an
    operator without parts: the grid triples are walked by index, so each
    inner value on the n x n grid pairs is evaluated once, and each grid
    triple takes two outer evaluations; a random triple takes four.  On an
    operator with parts, see ``nested_part_calls``."""
    n = s.triple_grid_n
    return n * n + 2 * n**3 + 4 * s.triple_random_count


def nested_part_calls(s, second=True):
    """(fn, u, v, cell) calls of a nested law that passes with no
    escalation, on an operator with parts: u and v once per grid point and
    once per inner value that a side reads (v of each, for the nesting
    op(x, op(y, z)), and u of each for op(op(x, y), z), which EP does not
    read); cell once per inner value and twice per grid triple; fn four
    times per random triple."""
    n = s.triple_grid_n
    return (4 * s.triple_random_count, n + second * n * n, n + n * n, n * n + 2 * n**3)


def test_evaluations_per_check(small_spec):
    s = small_spec
    n1, g = len(s.points_1d()), len(s.grid())

    lk = Counting(lambda x, y: min(1.0 - x + y, 1.0))
    assert check_implication_axioms(BinaryConnective(lk, "lk"), s).holds
    assert lk.calls == 3 + 2 * g * n1  # I3 corners, then the I1 and I2 scans

    product = Counting(lambda x, y: x * y)
    report = check_tnorm_axioms(BinaryConnective(product, "product"), s)
    assert report.holds and report.details["escalations"] == 0
    # T4, T1 on each grid cell (the table, its diagonal too) and both ways
    # on each random pair, the T3 scan, then T2's float evaluations
    t1_calls = g * g + 2 * s.random_count
    assert product.calls == n1 + t1_calls + g * n1 + nested_evaluations(s)

    standard = Counting(lambda x: 1 - x)
    assert check_negation_axioms(Negation(standard, "standard"), s).holds
    assert standard.calls == 2 + n1


def test_scan_stops_at_the_first_breaking_pair(small_spec):
    # I3 holds; I1 breaks at y = 0 where x passes 0.5, and the scan
    # evaluates up to that pair and no further
    def rising(x, y):
        return y if x == 1.0 else 1.0 - x if x < 0.5 else x

    counting = Counting(rising)
    report = check_implication_axioms(BinaryConnective(counting, "rising"), small_spec)
    assert report.property == "I1" and report.witness["y"] == 0.0
    xs = sorted(small_spec.points_1d())
    values = [rising(x, 0.0) for x in xs]
    k = next(k for k in range(1, len(xs))
             if values[k] > values[k - 1] + small_spec.tolerance)
    assert counting.calls == 3 + k + 1
    assert (report.witness["value1"], report.witness["value2"]) == tuple(values[k - 1:k + 1])


# Operators with parts: fn(x, y) == cell(u(x), v(y), x, y).  The float
# ones are checked on the default plan, the 40-digit chains on a small one.

SMALL = SampleSpec(grid_n=21, random_count=50, seed=7)
PHIS = (identity_bijection(), power_bijection(0.5), power_bijection(2.0),
        power_bijection(3.0))
YAGER_P = (0.5, 2.0, 3.7, 1000.0)  # at 1000 both powers underflow and cell scales them
# I1 fails: the table negation rises between 0.4 and 0.6
ILL_NEGATED = ign_candidate(neg_log(), table_negation([(0, 1), (0.4, 0.2), (0.6, 0.6), (1, 0)]))

PARTED = [
    *((yager_connective(p), SampleSpec()) for p in YAGER_P),
    *((generated_tnorm_connective(f), SampleSpec())
      for f in (yager_f(0.5), yager_f(2.0), TABLE_F)),
    *((yager_residual_candidate(p), SampleSpec()) for p in YAGER_P),
    *((residual_candidate(generated_tnorm_connective(f)), SampleSpec())
      for f in (yager_f(0.5), yager_f(2.0), TABLE_F)),
    *((residual_candidate(yager_connective(p)), SampleSpec()) for p in YAGER_P),
    *((build_intersection_member(phi), SampleSpec()) for phi in PHIS),
    *((generated_tconorm_connective(g), SampleSpec())
      for g in (neg_log(), power_gp(2.0), piecewise_f(), TABLE_G)),
    *((ig_candidate(g), SMALL) for g in (neg_log(), power_gp(2.0), TABLE_G)),
    (ign_candidate(power_gp(2.0), yager_negation(2.0)), SMALL),
    (ILL_NEGATED, SMALL),
]
PARTED_IDS = [op.label for op, _ in PARTED]


def typed(values):
    return [(type(v), v) for v in values]


@pytest.mark.parametrize("op, s", PARTED, ids=PARTED_IDS)
def test_parts_give_fn_bit_for_bit(op, s):
    assert op.parts is not None
    xs, grid = sorted(s.points_1d()), s.grid()
    for x, values in op.lines(xs, grid):  # a row: fn(x, .)
        assert typed(values) == typed(op.fn(x, y) for y in xs), x
    for y, values in op.lines(xs, grid, first=True):  # a column: fn(., y)
        assert typed(values) == typed(op.fn(x, y) for x in xs), y
    assert typed(v for row in op.table(grid) for v in row) == typed(
        op(x, y) for x in grid for y in grid)
    u, v, cell = op.parts
    with mpmath.workdps(CHAIN_DPS):
        for x, y in MPF_PAIRS:
            x, y = mpmath.mpf(x), mpmath.mpf(y)
            got, want = cell(u(x), v(y), x, y), op.fn(x, y)
            assert got == want and type(got) is type(want), (x, y)


def bumped_product():
    """A t-norm-like operator with parts that breaks T3 (and I2): a product
    with a bump on 0.5 < x + y < 0.6, symmetric, with neutral element 1."""
    def cell(a, b, x, y):
        return x if y == 1.0 else y if x == 1.0 else a * b + (0.01 if 0.5 < x + y < 0.6 else 0.0)

    def ident(t):
        return t

    return BinaryConnective(lambda x, y: cell(x, y, x, y), "bumped", parts=(ident, ident, cell))


def stepped_product():
    """An implication-like operator with parts and a step in y: a product
    raised by 0.5 for y > 0.5, so I(x, .) jumps just right of y = 0.5 and
    fails right-continuity."""
    def cell(a, b, x, y):
        return a * b + (0.5 if y > 0.5 else 0.0)

    def ident(t):
        return t

    return BinaryConnective(lambda x, y: cell(x, y, x, y), "stepped", parts=(ident, ident, cell))


BUMPED = bumped_product()
STEPPED = stepped_product()
PHI_CONJUGATES = [op for op, _ in PARTED if op.label.startswith("I_phi")]


@pytest.mark.parametrize("op, s", [*PARTED, (BUMPED, SMALL)], ids=[*PARTED_IDS, "bumped"])
def test_reports_equal_without_parts(op, s):
    plain = op.replace(parts=None)
    for check in (check_implication_axioms, check_tnorm_axioms):
        assert check(op, s).to_json() == check(plain, s).to_json(), check.__name__
    # EP and associativity read the parts on the triple grid; a 7^3 + 50
    # triple plan keeps the 40-digit ones short
    nested = SampleSpec(**{**s.as_dict(), "triple_grid_n": 7, "triple_random_count": 50})
    for law in (lambda c: check_property(c, "EP", nested),
                lambda c: find_associativity_counterexample(c, nested)):
        assert law(op).to_json() == law(plain).to_json()


def test_failing_scans_with_parts():
    assert check_implication_axioms(ILL_NEGATED, SMALL).property == "I1"
    assert check_tnorm_axioms(BUMPED, SMALL).property == "T3"
    assert check_implication_axioms(BUMPED, SMALL).property == "I3"
    right = r_probe(STEPPED, SMALL).verdicts[-1]
    assert right.property == "right-continuity" and not right.holds
    assert right.witness == {"x": 0.0, "y": 0.5, "diffs": [0.5, 0.5, 0.5]}


@pytest.mark.parametrize("op, s", [*((op, SampleSpec()) for op in PHI_CONJUGATES),
                                   (ig_candidate(neg_log()), SMALL), (STEPPED, SMALL)],
                         ids=[*(op.label for op in PHI_CONJUGATES), "ig(neg_log)", "stepped"])
def test_surface_probe_equal_without_parts(op, s):
    # the class probes' surface grid and right-continuity lines go through
    # the operator's table and lines, as the scans do
    plain = op.replace(parts=None)
    for probe in (conjugate_lk_probe, r_probe):
        assert probe(op, s).to_json() == probe(plain, s).to_json(), probe.__name__


def counted(op):
    """op with a Counting wrapper on fn and on each of its parts."""
    return BinaryConnective(Counting(op.fn), op.label, parts=tuple(map(Counting, op.parts)))


def test_evaluations_per_check_with_parts(small_spec):
    s = small_spec
    n1, g = len(s.points_1d()), len(s.grid())

    lk = counted(build_intersection_member(identity_bijection()))
    assert check_implication_axioms(lk, s).holds
    u, v, cell = lk.parts
    assert lk.fn.calls == 3  # the I3 corners; no fn call inside a scan
    # I1: u per sorted point, v per grid line; I2: v per sorted point, u per grid line
    assert u.calls == v.calls == n1 + g
    assert cell.calls == 2 * g * n1

    yager = counted(yager_connective(2.0))
    report = check_tnorm_axioms(yager, s)
    assert report.holds and report.details["escalations"] == 0
    u, v, cell = yager.parts
    # fn: T1 both ways on each random pair, then T2 on the random triples.
    # T4 reads the column y = 1: u once per point, v once and cell per
    # point.  T1's grid table runs on the parts: u and v once per grid
    # point and cell per grid cell; the T3 scan takes v per sorted point,
    # u per grid line and cell per cell; then T2's grid triples
    fn, u_t2, v_t2, cell_t2 = nested_part_calls(s)
    assert yager.fn.calls == 2 * s.random_count + fn
    assert (u.calls, v.calls) == (n1 + g + g + u_t2, 1 + g + n1 + v_t2)
    assert cell.calls == n1 + g * g + g * n1 + cell_t2


NESTED_11 = SampleSpec(triple_grid_n=11, triple_random_count=500)


@pytest.mark.parametrize("check, op, s, escalations", [
    (lambda op, s: check_property(op, "EP", s), yager_residual_candidate(2.0), None, 0),
    # the 40-digit chain escalates two triples on this plan
    (lambda op, s: check_property(op, "EP", s),
     ign_candidate(power_gp(2.0), yager_negation(2.0)), NESTED_11, 2),
    (find_associativity_counterexample, generated_tconorm_connective(neg_log()), None, 0),
], ids=["EP yager_residual", "EP ign", "associativity generated_tconorm"])
def test_nested_law_evaluations_with_parts(check, op, s, escalations, small_spec):
    # EP reads only op(x, op(y, z)); associativity reads both nestings and
    # evaluates its special triple in full, as a random one.  An escalated
    # triple evaluates fn four more times, at CHAIN_DPS
    s = s or small_spec
    op = counted(op)
    report = check(op, s)
    assert report.holds and report.details["escalations"] == escalations
    is_ep = report.property == "EP"
    fn, u, v, cell = nested_part_calls(s, second=not is_ep)
    special = 0 if is_ep else len(SPECIAL_TRIPLES)
    assert calls(op) == (fn + 4 * special + 4 * escalations, u, v, cell)


def banded(a, b, x, y):
    """The cell of I(x, y) = y / 2 for 1/4 <= x < 1/2, y^2 for x >= 1/2, and
    y below: maps of y that commute within a band, not across two."""
    return 0.5 * y if 0.25 <= x < 0.5 else y * y if x >= 0.5 else y


def _parted(name, cell):
    def ident(t):
        return t

    return BinaryConnective(lambda x, y: cell(x, y, x, y), name, parts=(ident, ident, cell))


@pytest.mark.parametrize("op, witness", [
    # the first projection: EP fails at the first x != y, in row 1 of x = 0
    (_parted("first", lambda a, b, x, y: x), (0.0, 1 / 6, 0.0)),
    # fails at the first bands that do not commute, past x = 0
    (_parted("banded", banded), (1 / 3, 0.5, 1 / 6)),
], ids=["first", "banded"])
def test_failing_nested_law_evaluates_no_cell_past_its_witness(op, witness, small_spec):
    # the rows of the inner values are filled at x = 0; a check that fails
    # at the grid triple (i, j, k) fills no row past j while i = 0, and
    # evaluates two outer cells per grid triple up to the witness
    s = small_spec
    op = counted(op)
    report = check_property(op, "EP", s)
    assert not report.holds and report.details["escalations"] == 1
    g = s.triple_grid()
    n = len(g)
    i, j, k = (g.index(report.witness[key]) for key in ("x", "y", "z"))
    assert (g[i], g[j], g[k]) == witness
    rows = j + 1 if i == 0 else n
    # fn: the witness at CHAIN_DPS; v: per grid point and per inner value
    assert calls(op) == (4, n, n + n * rows, n * rows + 2 * (i * n * n + j * n + k + 1))


def calls(op):
    """(fn, u, v, cell) calls of a ``counted`` operator."""
    return (op.fn.calls, *(part.calls for part in op.parts))


def test_pair_and_point_laws_read_the_lines(small_spec):
    # the grid pairs are read row by row: u once per row, v once per grid
    # point and cell once per grid pair; the random pairs call fn.  NP
    # reads the one line x = 1 over the points
    s = small_spec
    n1, g, r = len(s.points_1d()), len(s.grid()), s.random_count
    op = counted(yager_residual_candidate(2.0))
    assert check_property(op, "OP", s).holds
    assert calls(op) == (r, g, g, g * g)
    op = counted(yager_residual_candidate(2.0))
    assert check_property(op, "NP", s).holds
    assert calls(op) == (0, 1, n1, n1)
    # CP's left side is read with the pairs, its right side I(N(y), N(x)) calls fn
    op = counted(yager_residual_candidate(2.0))
    assert check_property(op, "CP", s, yager_negation(2.0)).holds
    assert calls(op) == (r + g * g + r, g, g, g * g)
    # compare reads both surfaces with the pairs
    f, h = counted(yager_connective(2.0)), counted(generated_tnorm_connective(yager_f(2.0)))
    assert compare_surfaces(f, h, s).holds
    assert calls(f) == calls(h) == (r, g, g, g * g)


def test_failing_point_law_evaluates_no_term_past_its_witness(small_spec):
    # NP reads one line, so the points' terms are streamed with the cells:
    # here it fails at y = 0.5, the eleventh point
    op = counted(BinaryConnective(lambda x, y: y if y < 0.5 else 0.0, "low",
                                  parts=(lambda x: x, lambda y: y,
                                         lambda a, b, x, y: b if b < 0.5 else 0.0)))
    report = check_property(op, "NP", small_spec)
    assert report.witness == {"y": 0.5, "value": 0.0}
    assert calls(op) == (1, 1, 11, 11)


@pytest.mark.parametrize("op, s, law, negation", [
    (ig_candidate(neg_log()), SMALL, "OP", None),
    (yager_residual_candidate(2.0), SampleSpec(grid_n=21, random_count=50), "CP",
     standard_negation()),
], ids=["OP ig", "CP yager_residual"])
def test_failing_pair_law_evaluates_no_cell_past_its_witness(op, s, law, negation):
    counting = counted(op)
    report = check_property(counting, law, s, negation)
    assert report.to_json() == check_property(op, law, s, negation).to_json()
    assert not report.holds
    g = len(s.grid())
    k = s.pairs().index((report.witness["x"], report.witness["y"]))
    assert k < g * g  # a grid pair
    u, v, cell = counting.parts
    assert (u.calls, v.calls, cell.calls) == (k // g + 1, g, k + 1)


def test_generated_residual_evaluates_f_per_point_and_line(small_spec):
    s = small_spec
    n1, g = len(s.points_1d()), len(s.grid())
    f = Counting(TABLE_F.fn)
    r = residual_candidate(generated_tnorm_connective(TABLE_F.replace(fn=f)))
    assert r.parts is not None and check_implication_axioms(r, s).holds
    # the I3 corners evaluate no f (x <= y, or x = 1); I1 and I2 each
    # evaluate f once per sorted point and once per grid line
    assert f.calls == 2 * (n1 + g)


def test_grid_sweeps_on_the_default_plan():
    s = SampleSpec()
    g = len(s.grid())
    # right-continuity sweeps each grid line i(x, .) over y, y + 1e-3 and
    # y + 1e-7, for each grid y with y + 1e-3 <= 1
    points = 3 * (g - 1)
    lk = counted(build_intersection_member(identity_bijection()))
    assert _right_continuity(lk, s).holds
    u, v, cell = lk.parts
    assert (lk.fn.calls, u.calls, v.calls, cell.calls) == (0, g, points, g * points)
    plain = BinaryConnective(Counting(lk.fn.fn), "lk")
    assert _right_continuity(plain, s).holds
    assert plain.fn.calls == g * points
    # T1's grid part is the g x g table; the random pairs call the operator
    yager = counted(yager_connective(2.0))
    assert _check_t1(yager, s).holds
    u, v, cell = yager.parts
    assert (u.calls, v.calls, cell.calls) == (g, g, g * g)
    assert yager.fn.calls == 2 * s.random_count


def test_scan_with_parts_stops_at_the_first_breaking_pair():
    # I1 of ILL_NEGATED breaks on some grid line; the scan evaluates each
    # line up to its first breaking pair and no cell past it
    s = SMALL
    op = counted(ILL_NEGATED)
    report = check_implication_axioms(op, s)
    assert report.to_json() == check_implication_axioms(ILL_NEGATED, s).to_json()
    xs, tol = sorted(s.points_1d()), s.tolerance
    lines = s.grid().index(report.witness["y"])
    values = [clamp01(ILL_NEGATED.fn(x, report.witness["y"])) for x in xs]
    k = next(k for k in range(1, len(xs)) if values[k] > values[k - 1] + tol)
    u, v, cell = op.parts
    assert op.fn.calls == 3
    assert (u.calls, v.calls, cell.calls) == (len(xs), lines + 1, lines * len(xs) + k + 1)
    assert (report.witness["value1"], report.witness["value2"]) == tuple(values[k - 1:k + 1])
