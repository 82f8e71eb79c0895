import math

import mpmath
import pytest
from hypothesis import given, strategies as st

from genimpl.bijections import identity_bijection, power_bijection
from genimpl.connectives import (
    BinaryConnective,
    basic,
    dual_negation,
    dual_of,
    generated_tnorm_connective,
    mean_connective,
    standard_negation,
    yager_connective,
    yager_negation,
)
from genimpl.generators import (
    DECREASING,
    INCREASING,
    neg_log,
    piecewise_f,
    power_gp,
    pseudo_inverse,
    table_generator,
    yager_f,
)
from genimpl.implications import (
    CHAIN_DPS,
    ImplicationCandidate,
    generated_residual,
    ig_bounds,
    ig_candidate,
    ig_implication,
    ign_candidate,
    ign_implication,
    lukasiewicz_candidate,
    lukasiewicz_implication,
    mean_residual,
    natural_negation,
    phi_conjugate,
    piecewise_f_implication,
    residual_candidate,
    residual_numeric,
    sn_implication,
    yager_residual,
    yager_residual_candidate,
)
from genimpl.properties import check_implication_axioms, check_property
from genimpl.reports import SampleSpec
from genimpl.generators import DirectionError

# subnormal x make products underflow to 0, shifting the float-exact
# residual away from the real-arithmetic oracle
unit = st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, allow_subnormal=False
)


class TestResidualNumeric:
    @given(unit, unit)
    def test_minimum_residual_is_goedel(self, x, y):
        got = residual_numeric(basic("min"), x, y)
        want = 1.0 if x <= y else y
        assert got == pytest.approx(want, abs=1e-9)

    @given(unit, unit)
    def test_product_residual_is_goguen(self, x, y):
        got = residual_numeric(basic("product"), x, y)
        want = 1.0 if x <= y else y / x
        assert got == pytest.approx(want, abs=1e-9)

    @given(unit, unit)
    def test_lukasiewicz_residual(self, x, y):
        got = residual_numeric(basic("lukasiewicz"), x, y)
        assert got == pytest.approx(min(1.0 - x + y, 1.0), abs=1e-9)

    def test_empty_set_sup_is_zero(self):
        assert residual_numeric(mean_connective(), 0.0, 0.0) == 0.0

    def test_non_monotone_scan_path(self):
        from genimpl.connectives import BinaryConnective

        vee = BinaryConnective(
            lambda x, y: x * (2.0 * y - 1.0) ** 2, "vee"
        )
        # C(1, t) = (2t-1)^2 dips and climbs back; the feasible set
        # {t | C(1,t) <= 0.25} ends at t = 0.75, not at 1
        got = residual_numeric(vee, 1.0, 0.25)
        assert got == pytest.approx(0.75, abs=1e-3)

    def test_endpoint_evaluated_once(self):
        calls = []

        def product(x, y):
            calls.append(y)
            return x * y

        assert residual_numeric(BinaryConnective(product, "counted"), 0.8, 0.4) == 0.5
        # C(x,1) and C(x,0) once each, 15 more probes, then 53 bisection steps
        assert calls.count(1.0) == calls.count(0.0) == 1
        assert len(calls) == 70


class TestYagerResidual:
    def test_value(self):
        assert yager_residual(2.0, 0.5, 0.2) == pytest.approx(
            1.0 - math.sqrt(0.39), abs=1e-12
        )

    @given(unit, unit)
    def test_ordering_half(self, x, y):
        if x <= y:
            assert yager_residual(3.0, x, y) == 1.0

    def test_p_one_is_lukasiewicz(self):
        for x in (0.0, 0.3, 0.9):
            for y in (0.1, 0.5, 1.0):
                assert yager_residual(1.0, x, y) == pytest.approx(
                    lukasiewicz_implication(x, y), abs=1e-12
                )

    def test_matches_numeric_residual(self, small_spec):
        t = yager_connective(2.0)
        for x in small_spec.grid():
            for y in small_spec.grid():
                assert residual_numeric(t, x, y) == pytest.approx(
                    yager_residual(2.0, x, y), abs=1e-6
                )

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            yager_residual(0.0, 0.5, 0.5)


def yager_residual_50(p, x, y):
    with mpmath.workdps(50):
        if x <= y:
            return mpmath.mpf(1)
        x, y = mpmath.mpf(x), mpmath.mpf(y)
        return 1 - ((1 - y) ** p - (1 - x) ** p) ** (1 / mpmath.mpf(p))


def bisection_residual(c):
    return ImplicationCandidate(lambda x, y: residual_numeric(c, x, y), f"R[{c.label}]")


GENERATED_TNORMS = [
    (p, c) for p in (0.5, 1.0, 2.0, 3.7)
    for c in (yager_connective(p), generated_tnorm_connective(yager_f(p)))
]


def _label(v):
    return v.label if hasattr(v, "label") else repr(v)


class TestGeneratedResidual:
    """The residual of a t-norm generated by a continuous f in closed form,
    f^(-1)(max(f(y) - f(x), 0)), against the bisection."""

    @pytest.mark.parametrize("p, c", GENERATED_TNORMS, ids=_label)
    def test_matches_bisection_on_default_pairs(self, p, c):
        r = residual_candidate(c)
        for x, y in SampleSpec().pairs():
            got, numeric = r(x, y), residual_numeric(c, x, y)
            if abs(got - numeric) > 1e-15:
                # the bisection loses a few ulps next to the diagonal;
                # there the closed form is the closer one
                exact = yager_residual_50(p, x, y)
                assert abs(got - exact) <= 1e-15, (x, y)
                assert abs(got - exact) < abs(numeric - exact), (x, y)

    @pytest.mark.parametrize("p, c", GENERATED_TNORMS, ids=_label)
    def test_verdicts_match_bisection(self, p, c, small_spec):
        closed, numeric = residual_candidate(c), bisection_residual(c)

        def reports(i):
            return [*(check_property(i, law, small_spec) for law in ("NP", "IP", "OP")),
                    check_implication_axioms(i, small_spec)]

        # residuals of continuous t-norms: every one of these laws holds
        for a, b in zip(reports(closed), reports(numeric)):
            assert a.holds and b.holds, (a.property, a.witness, b.witness)

    @pytest.mark.parametrize("r", [
        r for p in (1e-300, 1e-9)
        for r in (residual_candidate(yager_connective(p)),
                  residual_candidate(generated_tnorm_connective(yager_f(p))),
                  yager_residual_candidate(p))
    ], ids=lambda r: r.label.removeprefix("R[").removesuffix("]"))
    def test_neutral_element_exact_at_tiny_p(self, r, small_spec):
        # f^(-1)(f(y)) loses about ulp/p: at p = 1e-300, (1-y)^p rounds
        # to 1 and the round trip gives 0 for every y
        assert all(r(1.0, y) == y for y in small_spec.grid())
        assert check_property(r, "NP", small_spec).holds

    def test_equals_yager_closed_form(self, small_spec):
        r = residual_candidate(yager_connective(2.0))
        for x, y in small_spec.pairs():
            assert r(x, y) == yager_residual(2.0, x, y)
        assert r(0.748, 0.073) == 0.10790975792804458

    def test_answers_at_precision_of_arguments(self):
        f = yager_f(2.0)
        assert generated_residual(f, 0.3, 0.3) == 1.0
        assert type(generated_residual(f, 0.9, 0.1)) is float
        with mpmath.workdps(40):
            x, y = mpmath.mpf("0.9"), mpmath.mpf("0.1")
            v = generated_residual(f, x, y)
            assert isinstance(v, mpmath.mpf)
            assert abs(v - yager_residual_50(2.0, x, y)) < mpmath.mpf(10) ** -35

    def test_others_stay_on_bisection(self, small_spec):
        for c in (dual_of(yager_connective(2.0)), basic("product"),
                  yager_connective(0.0), yager_connective(math.inf)):
            assert c.generator is None
            r = residual_candidate(c)
            for x, y in small_spec.pairs()[::7]:
                assert r(x, y) == residual_numeric(c, x, y)

    def test_table_tnorm_takes_the_closed_form(self, small_spec):
        table_f = table_generator(DECREASING, [(0.0, 1.0), (0.5, 0.3), (1.0, 0.0)])
        c = generated_tnorm_connective(table_f)
        assert c.generator is table_f
        r = residual_candidate(c)
        for x, y in small_spec.pairs():
            assert r(x, y) == generated_residual(table_f, x, y)
            assert r(x, y) == pytest.approx(residual_numeric(c, x, y), abs=1e-15), (x, y)


class TestGeneratedImplications:
    @given(unit, unit)
    def test_neg_log_gives_reichenbach(self, x, y):
        got = ig_implication(neg_log(), x, y)
        assert got == pytest.approx(1.0 - x + x * y, abs=1e-9)

    def test_standard_negation_recovers_plain_form(self):
        # against g^(-1)(g(1-x) + g(y)) written out here, at the chain's
        # precision and rounded once
        n = standard_negation()
        table_g = table_generator(INCREASING, [(0.0, 0.0), (0.5, 0.3), (1.0, 1.0)])
        for g in (power_gp(0.5), power_gp(2.0), power_gp(3.7), neg_log(),
                  piecewise_f(), table_g):
            for x, y in SampleSpec(grid_n=11).pairs():
                with mpmath.workdps(CHAIN_DPS):
                    s = g.fn(1 - mpmath.mpf(x)) + g.fn(mpmath.mpf(y))
                    plain = float(pseudo_inverse(g, s))
                assert ig_implication(g, x, y) == plain, (g.label, x, y)
                assert ign_implication(g, n, x, y) == plain, (g.label, x, y)

    def test_negation_not_rounded_inside_the_chain(self, small_spec):
        # N(x) = (1 - x^3)^(1/3) enters g at the chain's precision; a value
        # rounded to a double first is off by up to 7e-6 at p = 3.7, which
        # fails CP against N itself
        n = dual_negation(yager_negation(3.0))
        assert ign_implication(power_gp(2.0), n, 0.05, 0.0) == 0.9999583315971017
        i = ign_candidate(power_gp(3.7), n)
        assert i(0.1, 0.0) == 0.999666555493786
        assert check_property(i, "CP", small_spec, n).holds

    def test_ign_matches_yager_residual(self):
        g = power_gp(2.0)
        n = yager_negation(2.0)
        assert ign_implication(g, n, 0.5, 0.2) == pytest.approx(
            yager_residual(2.0, 0.5, 0.2), abs=1e-12
        )

    def test_rejects_decreasing_generator(self):
        with pytest.raises(DirectionError):
            ig_implication(yager_f(2.0), 0.5, 0.5)

    @pytest.mark.parametrize("g", [neg_log(), power_gp(2.0)])
    def test_answers_at_precision_of_arguments(self, g):
        # g(0.1) + g(0.1) < g(1), so the sum is not saturated
        assert type(ig_implication(g, 0.9, 0.1)) is float
        v = ig_implication(g, mpmath.mpf("0.9"), mpmath.mpf("0.1"))
        assert isinstance(v, mpmath.mpf)
        assert float(v) == pytest.approx(ig_implication(g, 0.9, 0.1), abs=1e-15)


# every catalog increasing generator, and tables: a plain one, a steep
# one (slope 5e5, then a range past 1) and a near-flat one (slope 2e-9)
INCREASING_GENERATORS = [
    *(power_gp(p) for p in (0.1, 0.5, 1.0, 2.0, 3.7, 20.0, 1000.0)),
    neg_log(),
    piecewise_f(),
    table_generator(INCREASING, [(0.0, 0.0), (0.5, 0.3), (1.0, 1.0)]),
    table_generator(INCREASING, [(0.0, 0.0), (1e-6, 0.5), (0.5, 0.7), (1.0, 40.0)]),
    table_generator(INCREASING, [(0.0, 0.0), (0.5, 1e-9), (0.75, 0.5), (1.0, 0.6)]),
]


def wide_ig(g, x, y):
    """I^g(x, y) at CHAIN_DPS, unrounded."""
    with mpmath.workdps(CHAIN_DPS):
        return ig_implication(g, mpmath.mpf(x), mpmath.mpf(y))


class TestIgBounds:
    @pytest.mark.parametrize("g", INCREASING_GENERATORS, ids=lambda g: g.label)
    def test_encloses_wide_value_on_plan_pairs(self, g):
        for x, y in SampleSpec(grid_n=41, random_count=400).pairs():
            lo, hi = ig_bounds(g, x, y, y)
            assert lo <= wide_ig(g, x, y) <= hi, (x, y)

    @given(st.sampled_from(INCREASING_GENERATORS), unit, unit, unit)
    def test_encloses_wide_values_over_an_interval(self, g, x, y1, y2):
        y_lo, y_hi = sorted((y1, y2))
        lo, hi = ig_bounds(g, x, y_lo, y_hi)
        for y in (y_lo, 0.5 * (y_lo + y_hi), y_hi):
            assert lo <= wide_ig(g, x, y) <= hi, (g.label, x, y)

    def test_every_ig_gets_bounds(self):
        for g in INCREASING_GENERATORS:
            assert ig_candidate(g).bounds is not None, g.label
        assert ign_candidate(power_gp(2.0), yager_negation(2.0)).bounds is None


class TestSNImplication:
    @given(unit, unit)
    def test_kleene_dienes(self, x, y):
        got = sn_implication(basic("min"), standard_negation(), x, y)
        # S = min is not a t-conorm; use the dual of product for a real one
        assert got == min(1.0 - x, y)

    def test_lukasiewicz_from_bounded_sum(self):
        from genimpl.connectives import dual_of

        s = dual_of(basic("lukasiewicz"))
        n = standard_negation()
        for x in (0.2, 0.7):
            for y in (0.3, 0.9):
                assert sn_implication(s, n, x, y) == pytest.approx(
                    lukasiewicz_implication(x, y), abs=1e-12
                )


class TestPhiConjugate:
    def test_identity_is_no_op(self):
        ilk = lukasiewicz_candidate()
        phi = identity_bijection()
        for x in (0.0, 0.4, 1.0):
            for y in (0.2, 0.8):
                assert phi_conjugate(ilk, phi, x, y) == ilk(x, y)

    def test_square_conjugate_value(self):
        ilk = lukasiewicz_candidate()
        phi = power_bijection(2.0)
        # phi^-1(min(1 - x^2 + y^2, 1))
        assert phi_conjugate(ilk, phi, 0.8, 0.2) == pytest.approx(
            math.sqrt(1.0 - 0.64 + 0.04), abs=1e-12
        )


class TestPiecewiseImplication:
    def test_closed_form_matches_generator_route(self, small_spec):
        g = piecewise_f()
        n = standard_negation()
        for x in small_spec.points_1d():
            for y in (0.0, 0.2, 0.45, 0.5, 0.55, 0.8, 1.0):
                assert piecewise_f_implication(x, y) == pytest.approx(
                    ign_implication(g, n, x, y), abs=1e-9
                )

    def test_plateau_branch(self):
        # x - y in [0.25, 0.5) with x >= 0.5, y <= 0.5 pins the value at 0.5
        assert piecewise_f_implication(0.6, 0.3) == 0.5
        assert piecewise_f_implication(0.75, 0.4) == 0.5


class TestNaturalNegation:
    def test_of_lukasiewicz_is_standard(self):
        n = natural_negation(lukasiewicz_candidate())
        for x in (0.0, 0.3, 1.0):
            assert n(x) == pytest.approx(1.0 - x, abs=1e-12)

    def test_of_yager_residual_is_np(self):
        n = natural_negation(yager_residual_candidate(2.0))
        m = yager_negation(2.0)
        for x in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert n(x) == pytest.approx(m(x), abs=1e-12)

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.7])
    def test_yager_negation_is_residual_at_zero(self, p, small_spec):
        n = yager_negation(p)
        for x in small_spec.points_1d():
            assert n(x) == yager_residual(p, x, 0.0), x


class TestMeanResidual:
    def test_boundary_violation(self):
        assert mean_residual(0.0, 0.0) == 0.0

    def test_interior_value(self):
        assert mean_residual(0.5, 0.5) == pytest.approx(0.5)
