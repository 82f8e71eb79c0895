import math

import mpmath
import pytest
from hypothesis import given, strategies as st

from genimpl.bijections import identity_bijection, power_bijection
from genimpl.connectives import (
    basic,
    mean_connective,
    standard_negation,
    yager_connective,
    yager_negation,
)
from genimpl.generators import neg_log, piecewise_f, power_gp, yager_f
from genimpl.implications import (
    ig_implication,
    ign_implication,
    lukasiewicz_candidate,
    lukasiewicz_implication,
    mean_residual,
    natural_negation,
    phi_conjugate,
    piecewise_f_implication,
    residual_numeric,
    sn_implication,
    yager_residual,
)
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


class TestGeneratedImplications:
    @given(unit, unit)
    def test_neg_log_gives_reichenbach(self, x, y):
        got = ig_implication(neg_log(), x, y)
        assert got == pytest.approx(1.0 - x + x * y, abs=1e-9)

    def test_standard_negation_recovers_plain_form(self):
        g = power_gp(2.0)
        n = standard_negation()
        for x in (0.2, 0.5, 0.8):
            for y in (0.1, 0.6):
                assert ign_implication(g, n, x, y) == pytest.approx(
                    ig_implication(g, x, y), abs=1e-12
                )

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
        from genimpl.implications import yager_residual_candidate

        n = natural_negation(yager_residual_candidate(2.0))
        m = yager_negation(2.0)
        for x in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert n(x) == pytest.approx(m(x), abs=1e-12)


class TestMeanResidual:
    def test_boundary_violation(self):
        assert mean_residual(0.0, 0.0) == 0.0

    def test_interior_value(self):
        assert mean_residual(0.5, 0.5) == pytest.approx(0.5)
