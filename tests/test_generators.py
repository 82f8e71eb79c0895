import math

import pytest
from hypothesis import example, given, strategies as st

from genimpl.generators import (
    DECREASING,
    INCREASING,
    DomainError,
    eval_generator,
    neg_log,
    piecewise_f,
    power_gp,
    pseudo_inverse,
    table_generator,
    verify_generator,
    yager_f,
)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestYagerF:
    def test_endpoints(self):
        f = yager_f(2.0)
        assert f(1.0) == 0.0
        assert f(0.0) == 1.0

    def test_value(self):
        assert yager_f(2.0)(0.5) == pytest.approx(0.25)

    @given(unit, st.sampled_from([0.5, 1.0, 2.0, 3.0]))
    def test_round_trip(self, x, p):
        f = yager_f(p)
        assert pseudo_inverse(f, f(x)) == pytest.approx(x, abs=1e-9)

    def test_inverse_clamps_above_range(self):
        # values past f(0)=1 are out of range; the sup definition gives 0
        assert pseudo_inverse(yager_f(2.0), 5.0) == 0.0

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            yager_f(0.0)
        with pytest.raises(ValueError):
            yager_f(math.inf)


class TestPowerGp:
    @given(unit, st.sampled_from([0.5, 1.0, 2.0, 3.0]))
    @example(0.99999, 3.0)
    def test_round_trip(self, x, p):
        # in generator space: near x = 1, g(x) = 1 - (1-x)^p keeps fewer
        # digits of 1-x than a double holds, so g^(-1)(g(x)) need not come
        # back to x itself, only to a point with the same image
        g = power_gp(p)
        assert g(pseudo_inverse(g, g(x))) == pytest.approx(g(x), abs=1e-12)

    def test_endpoints(self):
        g = power_gp(3.0)
        assert g(0.0) == 0.0
        assert g(1.0) == 1.0

    def test_inverse_clamps(self):
        g = power_gp(2.0)
        assert pseudo_inverse(g, 2.0) == 1.0
        assert pseudo_inverse(g, 0.0) == 0.0


class TestNegLog:
    def test_saturates_at_one(self):
        g = neg_log()
        assert g(1.0) == math.inf

    def test_matches_closed_form(self):
        g = neg_log()
        assert g(0.5) == pytest.approx(math.log(2.0))

    @given(st.floats(min_value=0.0, max_value=0.999, allow_nan=False))
    def test_round_trip(self, x):
        g = neg_log()
        assert pseudo_inverse(g, g(x)) == pytest.approx(x, abs=1e-9)

    def test_inverse_of_infinity(self):
        assert pseudo_inverse(neg_log(), math.inf) == 1.0


class TestPiecewiseF:
    def test_branch_values(self):
        f = piecewise_f()
        assert f(0.25) == 0.25
        assert f(0.5) == 0.5
        assert f(0.8) == pytest.approx(0.9)
        assert f(1.0) == 1.0

    def test_inverse_plateau_over_range_gap(self):
        # (0.5, 0.75] is not in the range; the pseudo-inverse sits at 0.5
        f = piecewise_f()
        for y in (0.55, 0.6, 0.7, 0.75):
            assert pseudo_inverse(f, y) == 0.5

    def test_inverse_on_range(self):
        f = piecewise_f()
        assert pseudo_inverse(f, 0.3) == 0.3
        assert pseudo_inverse(f, 0.9) == pytest.approx(0.8)
        assert pseudo_inverse(f, 2.0) == 1.0


class TestTableGenerator:
    def test_bisection_fallback_round_trip(self):
        g = table_generator(INCREASING, [(0.0, 0.0), (0.5, 0.2), (1.0, 1.0)])
        assert g.inverse is None
        for x in (0.1, 0.3, 0.5, 0.9):
            assert pseudo_inverse(g, g(x)) == pytest.approx(x, abs=1e-8)

    def test_decreasing_direction(self):
        f = table_generator(DECREASING, [(0.0, 1.0), (1.0, 0.0)])
        assert pseudo_inverse(f, 0.25) == pytest.approx(0.75, abs=1e-8)

    def test_requires_full_span(self):
        with pytest.raises(ValueError):
            table_generator(INCREASING, [(0.1, 0.0), (1.0, 1.0)])


class TestVerifyGenerator:
    def test_catalog_passes(self):
        for g in (yager_f(2.0), power_gp(0.5), neg_log(), piecewise_f()):
            assert verify_generator(g).holds

    def test_flat_table_fails_strictness(self):
        g = table_generator(
            INCREASING, [(0.0, 0.0), (0.4, 0.5), (0.6, 0.5), (1.0, 1.0)]
        )
        report = verify_generator(g)
        assert not report.holds
        assert report.property == "generator-strict-monotonicity"

    def test_wrong_endpoint_fails(self):
        g = table_generator(INCREASING, [(0.0, 0.1), (1.0, 1.0)])
        report = verify_generator(g)
        assert not report.holds
        assert report.property == "generator-endpoint"


class TestDomain:
    def test_eval_rejects_outside_unit_interval(self):
        with pytest.raises(DomainError):
            eval_generator(yager_f(2.0), 1.5)

    def test_pseudo_inverse_rejects_negative(self):
        with pytest.raises(DomainError):
            pseudo_inverse(yager_f(2.0), -0.1)
