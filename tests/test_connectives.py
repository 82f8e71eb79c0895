import math

import mpmath
import pytest
from hypothesis import example, given, strategies as st

from genimpl.connectives import (
    archimedean_witness,
    basic,
    dual_of,
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
from genimpl.generators import yager_f
from genimpl.implications import residual_numeric
from genimpl.properties import check_negation_axioms, check_tnorm_axioms

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
                assert abs(v - exact) < 1e-12, (x, y)
                if min(x, y) >= 0.5:  # below, 1 - (1-x) itself rounds up by an ulp
                    assert v <= min(x, y), (x, y)


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
