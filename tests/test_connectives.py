import itertools
import json
import math

import mpmath
import pytest
from hypothesis import example, given, strategies as st

from genimpl.connectives import (
    archimedean_witness,
    basic,
    dual_of,
    generated_tconorm_connective,
    generated_tnorm_connective,
    mean_connective,
    n_ary_power,
    quasi_arithmetic_mean,
    standard_negation,
    t_drastic,
    t_lukasiewicz,
    t_minimum,
    t_product,
    table_connective,
    yager_connective,
    yager_negation,
)
from genimpl import specs
from genimpl.generators import (
    DECREASING,
    INCREASING,
    neg_log,
    piecewise_f,
    power_gp,
    table_generator,
    yager_f,
)
from genimpl.implications import CHAIN_DPS, residual_numeric
from genimpl.properties import check_negation_axioms, check_property, check_tnorm_axioms
from genimpl.reports import SampleSpec

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestBasicTnorms:
    def test_values(self):
        assert t_minimum(0.3, 0.7) == 0.3
        assert t_product(0.5, 0.4) == 0.2
        assert t_lukasiewicz(0.7, 0.5) == pytest.approx(0.2)
        assert t_lukasiewicz(0.3, 0.4) == 0.0
        assert t_drastic(0.9, 0.9) == 0.0
        assert t_drastic(1.0, 0.4) == 0.4

    def test_dispatch(self):
        assert basic("product").fn(0.5, 0.5) == 0.25
        with pytest.raises(ValueError):
            basic("nope")

    @pytest.mark.parametrize("kind", ["min", "product", "lukasiewicz", "drastic"])
    def test_axioms(self, kind, small_spec):
        assert check_tnorm_axioms(basic(kind), small_spec).holds


class TestYagerFamily:
    def test_interior_value(self):
        assert yager_connective(2.0).fn(0.5, 0.5) == pytest.approx(
            1.0 - math.sqrt(0.5)
        )

    def test_p_zero_is_drastic(self):
        assert yager_connective(0.0).fn(0.9, 0.9) == 0.0
        assert yager_connective(0.0).fn(1.0, 0.4) == 0.4

    def test_p_infinity_is_minimum(self):
        assert yager_connective(math.inf).fn(0.3, 0.7) == 0.3

    @given(unit)
    def test_neutral_element_exact(self, x):
        assert yager_connective(3.0).fn(x, 1.0) == x
        assert yager_connective(3.0).fn(1.0, x) == x

    def test_matches_generated_form(self, small_spec):
        t = generated_tnorm_connective(yager_f(2.0))
        for x in small_spec.grid():
            for y in small_spec.grid():
                assert t(x, y) == pytest.approx(
                    yager_connective(2.0).fn(x, y), abs=1e-9
                )

    @pytest.mark.parametrize("p", [-1.0, math.nan])
    def test_connective_rejects_bad_p_when_built(self, p):
        with pytest.raises(ValueError, match="p must be >= 0"):
            yager_connective(p)

    @pytest.mark.parametrize("p", [800.0, 1000.0])
    def test_large_p_does_not_underflow(self, p):
        # (1-x)^p + (1-y)^p is below the smallest normal double for
        # x, y >= 0.6 at these p; it used to read 0.0 and give T = 1
        assert yager_connective(1000.0).fn(0.6, 0.6) == pytest.approx(0.5997226450149677, abs=1e-15)
        xs = [0.0, 0.3, 0.5, 0.6, 0.61, 0.7, 0.75, 0.9, 0.95, 0.999, 1.0]
        for x in xs:
            for y in xs:
                v = yager_connective(p).fn(x, y)
                with mpmath.workdps(50):
                    a, b = 1 - mpmath.mpf(x), 1 - mpmath.mpf(y)
                    exact = max(0, 1 - (a ** p + b ** p) ** (1 / mpmath.mpf(p)))
                assert abs(v - exact) < 1e-12 and v <= min(x, y), (x, y)

    # the rounded root passed min(x, y) by an ulp at these points; the
    # sweep reads every default-plan pair, both ways round
    @pytest.mark.parametrize("p, x, y", [
        (1000.0, 0.3, 0.5), (1e9, 0.3, 0.7), (1e300, 0.3, 0.7), (20.0, 0.01, 0.83)])
    def test_never_above_the_minimum_at_known_points(self, p, x, y):
        t = yager_connective(p)
        assert t.fn(x, y) <= min(x, y) and t.fn(y, x) <= min(x, y)

    @pytest.mark.parametrize("p", [0.5, 2.0, 3.7, 20.0, 1000.0, 1e9, 1e300])
    def test_never_above_the_minimum_on_the_plan(self, p):
        fn = yager_connective(p).fn
        assert all(fn(x, y) <= min(x, y) for x, y in SampleSpec().pairs())


class TestGeneratedTnorm:
    @given(unit)
    @example(0.01)
    def test_neutral_element_exact(self, x):
        # the p-th root of the p-th power is off by an ulp at 6 of 71
        # sample points of yager_f(2) when 1 goes through the generator;
        # C(0.01, 1) came out as 0.010000000000000009, and the bisection
        # residual then stopped just short of 1 at x = y
        t = generated_tnorm_connective(yager_f(2.0))
        assert t.fn(x, 1.0) == x
        assert t.fn(1.0, x) == x
        assert residual_numeric(t, x, x) == 1.0


# One sum construction h^(-1)(h(x) + h(y)) gives both generated connectives;
# each returns its neutral element's other argument exactly, where the round
# trip h^(-1)(h(x)) loses x wherever h saturates (power_gp at a large p).
SUM_GENERATED = [
    *((generated_tnorm_connective(f), 1.0)
      for f in (*map(yager_f, (0.5, 2.0, 20.0, 1000.0)),
                table_generator(DECREASING, [(0.0, 1.0), (0.5, 0.3), (1.0, 0.0)]))),
    *((generated_tconorm_connective(g), 0.0)
      for g in (*map(power_gp, (2.0, 20.0, 1000.0)), neg_log(), piecewise_f(),
                table_generator(INCREASING, [(0.0, 0.0), (0.5, 0.3), (1.0, 1.0)]))),
]


@pytest.mark.parametrize("op, e", SUM_GENERATED, ids=[op.label for op, _ in SUM_GENERATED])
def test_neutral_element_exact_across_the_catalog(op, e):
    points = SampleSpec().points_1d()
    for x in points:
        assert op.fn(x, e) == x and op.fn(e, x) == x, x
    with mpmath.workdps(CHAIN_DPS):
        e = mpmath.mpf(e)
        for x in map(mpmath.mpf, points[::10]):
            for v in (op.fn(x, e), op.fn(e, x)):
                assert v == x and type(v) is type(x), x


def test_generated_tconorm_at_a_saturated_point():
    assert generated_tconorm_connective(power_gp(20.0))(0.85, 0.0) == 0.85


# T <= min(x, y).  Before the t-norm was bounded, the rounded inverse passed
# it on 1,460 of the pairs below at p = 20 (by an ulp), and on 27,219 at
# p = 1000, where f underflows and T(0.6, 0.6) read 1.0
def test_generated_tnorm_at_a_rounded_point():
    assert generated_tnorm_connective(yager_f(20.0)).fn(0.01, 0.83) == 0.01


@pytest.mark.parametrize("p", [20.0, 1000.0])
def test_generated_tnorm_stays_at_or_below_min(p):
    fn = generated_tnorm_connective(yager_f(p)).fn
    points = SampleSpec().points_1d()[:300]
    assert sum(fn(x, y) > min(x, y) for x in points for y in points) == 0


def test_tnorm_axioms_hold_where_the_generator_underflows():
    # T3 false-failed at x = 0.53, where T(0.53, y) read 1.0 next to y = 1
    t = specs.parse_binary({"kind": "generated_tnorm", "f": {"kind": "yager_f", "p": 1000}})
    report = check_tnorm_axioms(t)
    assert report.holds, report.witness


# Verdicts that read S(x, 0) = x: T4 of the dual t-norm at T(x, 1), NP of an
# (S,N)-implication at S(N(1), y) = S(0, y), I^g_N = S_g(N(x), y) among them,
# and NP of the dual's residual
GP = {p: {"kind": "power_gp", "p": p} for p in (2, 20, 50, 1000)}
GTC = {p: {"kind": "generated_tconorm", "g": GP[p]} for p in (2, 20, 1000)}
NEUTRAL_VERDICTS = [
    *(({"kind": "dual", "of": GTC[p]}, "tnorm") for p in (20, 1000)),
    *(({"kind": "sn", "S": GTC[20], "N": n}, "NP")
      for n in ({"kind": "standard"}, {"kind": "yager_np", "p": 2})),
    ({"kind": "sn", "S": GTC[1000], "N": {"kind": "standard"}}, "NP"),
    ({"kind": "residual", "of": {"kind": "dual", "of": GTC[2]}}, "NP"),
    *(({"kind": "ig", "g": GP[p]}, "NP") for p in (20, 50, 1000)),
    *(({"kind": "ign", "g": GP[p], "N": {"kind": "yager_np", "p": q}}, "NP")
      for p, q in ((20, 20), (1000, 2))),
]


@pytest.mark.parametrize("spec, law", NEUTRAL_VERDICTS,
                         ids=[f"{law} {json.dumps(d)}" for d, law in NEUTRAL_VERDICTS])
def test_verdicts_decided_at_the_neutral_element_hold(spec, law):
    op = specs.parse_binary(spec)
    report = check_tnorm_axioms(op) if law == "tnorm" else check_property(op, law)
    assert report.holds, report.witness


class TestDual:
    @given(unit, unit)
    def test_involution(self, x, y):
        s = dual_of(basic("product"))
        t = dual_of(s)
        assert t(x, y) == pytest.approx(x * y, abs=1e-12)

    def test_probabilistic_sum(self):
        s = dual_of(basic("product"))
        assert s(0.5, 0.5) == pytest.approx(0.75)
        assert s(0.0, 0.3) == pytest.approx(0.3)

    def test_dual_of_a_dual_spec_is_the_inner_operator(self):
        # dual_of rounds 1 - x twice: dual_of(dual_of(min))(0.05, 1) is
        # 0.050000000000000044, above min, and its residual bisects to about
        # x where it is 1.  The spec returns the inner operator, relabelled
        t = basic("min")
        dd = specs.parse_binary(nest_dual({"kind": "basic", "name": "min"}, 2))
        assert dd.label == "dual[dual[T_min]]" and dd(0.05, 1.0) == 0.05
        assert (dd.fn, dd.residual.fn) == (t.fn, t.residual.fn)
        yager = specs.parse_binary(nest_dual({"kind": "yager_tnorm", "p": 2}, 4))
        assert yager.label == "dual[dual[dual[dual[T_Y(p=2)]]]]"
        assert yager.parts is not None and yager.residual is not None
        # an odd nesting keeps one dual_of
        ddd = specs.parse_binary(nest_dual({"kind": "basic", "name": "min"}, 3))
        d = dual_of(t)
        assert ddd.label == "dual[dual[dual[T_min]]]" and ddd.residual is None
        assert all(ddd.fn(x, y) == d.fn(x, y) for x, y in PLAN.pairs())

    @pytest.mark.parametrize("t", [{"kind": "basic", "name": "min"},
                                   {"kind": "yager_tnorm", "p": 2}], ids=json.dumps)
    def test_residual_of_a_double_dual_is_an_implication(self, t):
        r = specs.parse_binary({"kind": "residual", "of": nest_dual(t, 2)})
        for law in ("IP", "OP"):
            assert check_property(r, law).holds, law


def nest_dual(spec: dict, depth: int) -> dict:
    for _ in range(depth):
        spec = {"kind": "dual", "of": spec}
    return spec


class TestMean:
    def test_value(self):
        assert quasi_arithmetic_mean(0.0, 1.0) == pytest.approx(math.sqrt(0.5))

    def test_fails_boundary_axiom(self, small_spec):
        report = check_tnorm_axioms(mean_connective(), small_spec)
        assert not report.holds
        assert report.property == "T4"


class TestArchimedean:
    def test_lukasiewicz_witness(self):
        assert archimedean_witness(basic("lukasiewicz"), 0.9, 0.5, 100) == 6

    def test_minimum_has_none(self):
        assert archimedean_witness(basic("min"), 0.6, 0.5, 1000) is None

    def test_matches_n_ary_power(self):
        t = basic("lukasiewicz")
        n = archimedean_witness(t, 0.9, 0.5, 100)
        assert n_ary_power(t, 0.9, n) <= 0.5
        assert n_ary_power(t, 0.9, n - 1) > 0.5

    def test_rejects_boundary_arguments(self):
        with pytest.raises(ValueError):
            archimedean_witness(basic("min"), 1.0, 0.5, 10)


class TestNegations:
    def test_standard(self):
        n = standard_negation()
        assert n(0.25) == 0.75

    def test_yager_collapses_at_p_one(self):
        n = yager_negation(1.0)
        for x in (0.0, 0.3, 0.8, 1.0):
            assert n(x) == pytest.approx(1.0 - x, abs=1e-12)

    def test_yager_value(self):
        # N_2(0.5) = 1 - sqrt(3)/2
        assert yager_negation(2.0)(0.5) == pytest.approx(
            1.0 - math.sqrt(3.0) / 2.0
        )

    @given(unit)
    def test_yager_involutive(self, x):
        n = yager_negation(2.0)
        assert n(n(x)) == pytest.approx(x, abs=1e-7)

    def test_axioms(self, small_spec):
        for n in (standard_negation(), yager_negation(0.5), yager_negation(3.0)):
            assert check_negation_axioms(n, small_spec).holds

    def test_keeps_precision_of_argument(self):
        # like a connective's, so a wide chain through N stays wide
        assert isinstance(standard_negation()(mpmath.mpf("0.3")), mpmath.mpf)
        assert isinstance(yager_negation(2.0)(mpmath.mpf("0.3")), mpmath.mpf)
        assert type(yager_negation(2.0)(0.3)) is float

    def test_yager_rejects_bad_p(self):
        for p in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="p must be finite and positive"):
                yager_negation(p)


class TestTableConnective:
    def test_bilinear_interpolation(self):
        c = table_connective([[0.0, 0.0], [0.0, 1.0]])
        assert c(1.0, 1.0) == 1.0
        assert c(0.5, 0.5) == pytest.approx(0.25)

    def test_rejects_ragged_grid(self):
        with pytest.raises(ValueError):
            table_connective([[0.0, 0.0], [0.0]])


# The nested laws compose an operator's raw fn while the point laws call the
# clamped operator; the two judge the same operator only if fn stays in
# [0,1] (or NaN).  One or more specs of every kind, on a small plan plus
# points within 1e-7 of the edges.
YAGER_NP = {"kind": "yager_np", "p": 2}
NEGATION_SPECS = [
    {"kind": "standard"},
    YAGER_NP,
    {"kind": "yager_np", "p": 0.5},
    {"kind": "phi", "phi": {"kind": "power", "a": 2}},
    {"kind": "dual", "of": YAGER_NP},
    {"kind": "table", "points": [[0, 1], [0.5, 0.3], [1, 0]]},
]
OPERATOR_SPECS = [
    *({"kind": "basic", "name": name} for name in ("min", "product", "lukasiewicz", "drastic")),
    *({"kind": "yager_tnorm", "p": p} for p in (0.5, 2, 1000)),
    {"kind": "mean"},
    {"kind": "dual", "of": {"kind": "yager_tnorm", "p": 2}},
    {"kind": "generated_tnorm", "f": {"kind": "yager_f", "p": 2}},
    {"kind": "generated_tnorm", "f": {"kind": "table", "direction": "decreasing",
                                      "points": [[0, 2], [0.5, 0.5], [1, 0]]}},
    {"kind": "generated_tconorm", "g": {"kind": "neg_log"}},
    {"kind": "generated_tconorm", "g": {"kind": "piecewise_f"}},
    {"kind": "table", "values": [[0, 0, 0], [0, 0.25, 0.5], [0, 0.5, 1]]},
    {"kind": "yager_residual", "p": 2},
    {"kind": "lukasiewicz"},
    {"kind": "mean_residual"},
    {"kind": "piecewise_f"},
    *({"kind": "ig", "g": g} for g in ({"kind": "power_gp", "p": 2}, {"kind": "neg_log"})),
    {"kind": "ign", "g": {"kind": "power_gp", "p": 2}, "N": YAGER_NP},
    {"kind": "sn", "S": {"kind": "dual", "of": {"kind": "basic", "name": "product"}},
     "N": YAGER_NP},
    {"kind": "residual", "of": {"kind": "basic", "name": "product"}},
    {"kind": "residual", "of": {"kind": "mean"}},
    {"kind": "phi_conjugate", "phi": {"kind": "power", "a": 2}},
]
PLAN = SampleSpec(grid_n=11, random_count=40)
EDGES = [0.0, 1e-7, 0.5, 1 - 1e-7, 1.0]


def in_unit_or_nan(v) -> bool:
    return 0 <= v <= 1 or v != v


def test_every_kind_is_covered():
    assert {d["kind"] for d in NEGATION_SPECS} == set(specs.NEGATIONS)
    assert {d["kind"] for d in OPERATOR_SPECS} == set(specs.OPERATORS)


@pytest.mark.parametrize("spec", NEGATION_SPECS, ids=json.dumps)
def test_negation_fn_stays_in_the_unit_interval(spec):
    fn = specs.parse_negation(spec).fn
    for x in PLAN.points_1d() + EDGES:
        assert in_unit_or_nan(fn(x)), x


@pytest.mark.parametrize("spec", OPERATOR_SPECS, ids=json.dumps)
def test_operator_fn_stays_in_the_unit_interval(spec):
    fn = specs.parse_binary(spec).fn
    for x, y in [*PLAN.pairs(), *itertools.product(EDGES, repeat=2)]:
        assert in_unit_or_nan(fn(x, y)), (x, y)
