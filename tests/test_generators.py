import math

import mpmath
import pytest
from hypothesis import example, given, strategies as st

from genimpl.generators import (
    DECREASING,
    INCREASING,
    DomainError,
    Generator,
    linear_table,
    neg_log,
    piecewise_f,
    power_gp,
    pseudo_inverse,
    table_generator,
    verify_generator,
    yager_f,
)
from genimpl.reports import SampleSpec
from genimpl.specs import GENERATORS, parse_generator

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

# one spec of every generator kind, a table in both directions
GENERATOR_SPECS = [
    {"kind": "yager_f", "p": 2},
    {"kind": "power_gp", "p": 2},
    {"kind": "neg_log"},
    {"kind": "piecewise_f"},
    {"kind": "table", "direction": "increasing", "points": [[0, 0], [0.5, 0.2], [1, 1]]},
    {"kind": "table", "direction": "decreasing", "points": [[0, 3], [0.2, 1], [1, 0]]},
]


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


class TestPrecisionOfArgument:
    """A closed-form pseudo-inverse answers at the precision of y: an mpf
    stays an mpf, a float or an int gives a float."""

    @pytest.mark.parametrize("g", [yager_f(2.0), power_gp(2.0), neg_log()])
    def test_mpf_stays_mpf(self, g):
        assert isinstance(pseudo_inverse(g, mpmath.mpf("0.25")), mpmath.mpf)

    @pytest.mark.parametrize("g", [yager_f(2.0), power_gp(2.0), neg_log()])
    @pytest.mark.parametrize("y", [0.25, 0, 1])
    def test_float_or_int_gives_float(self, g, y):
        v = pseudo_inverse(g, y)
        assert type(v) is float
        assert v == pytest.approx(float(pseudo_inverse(g, mpmath.mpf(y))), abs=1e-15)


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
    def test_inverse_round_trip(self):
        # the inverse is the table of the swapped nodes: exact at a node,
        # linear in between
        g = table_generator(INCREASING, [(0.0, 0.0), (0.5, 0.2), (1.0, 1.0)])
        assert [g.inverse(y) for y in (0.0, 0.2, 1.0)] == [0.0, 0.5, 1.0]
        for x in (0.1, 0.3, 0.5, 0.9):
            assert pseudo_inverse(g, g(x)) == pytest.approx(x, abs=1e-15)

    def test_inverse_outside_range_takes_end_values(self):
        # sup of the empty set below the range, sup of [0,1] above it
        # (a table takes 0 at its zero endpoint, so below its range lies
        # only y < 0, which pseudo_inverse rejects: ask the inverse there)
        g = table_generator(INCREASING, [(0.0, 0.0), (1.0, 0.6)])
        assert (g.inverse(-0.05), pseudo_inverse(g, 0.7)) == (0.0, 1.0)
        f = table_generator(DECREASING, [(0.0, 0.6), (1.0, 0.0)])
        assert (pseudo_inverse(f, 0.7), f.inverse(-0.05)) == (0.0, 1.0)

    @pytest.mark.parametrize("direction, points", [
        (INCREASING, [(0.0, 0.0), (0.4, 0.5), (0.6, 0.5), (1.0, 1.0)]),
        (INCREASING, [(0.0, 1.0), (1.0, 0.0)]),
        (DECREASING, [(0.0, 0.0), (1.0, 1.0)]),
        (DECREASING, [(0.0, 1.0), (0.5, 0.5), (0.5, 0.4), (1.0, 0.0)]),
    ])
    def test_rejects_points_not_strictly_monotone(self, direction, points):
        with pytest.raises(ValueError, match=f"strictly {direction}"):
            table_generator(direction, points)

    @pytest.mark.parametrize("direction, points, zero_at", [
        (INCREASING, [(0.0, 0.1), (1.0, 1.0)], "x=0"),
        (DECREASING, [(0.0, 1.0), (1.0, 0.1)], "x=1"),
        (DECREASING, [(0.0, 1.0), (1.0, -1.0)], "x=1"),
    ])
    def test_rejects_a_wrong_zero_endpoint(self, direction, points, zero_at):
        with pytest.raises(ValueError, match=f"take 0 at {zero_at} when {direction}"):
            table_generator(direction, points)

    @pytest.mark.parametrize("spec", GENERATOR_SPECS,
                             ids=lambda d: d.get("direction", d["kind"]))
    def test_every_kind_has_an_inverse(self, spec):
        g = parse_generator(spec)
        for x in SampleSpec().grid():
            assert g.inverse(g.fn(x)) == pytest.approx(x, abs=1e-12), x

    def test_every_kind_is_covered(self):
        # a new generator kind must enter the round trip above
        assert {d["kind"] for d in GENERATOR_SPECS} == set(GENERATORS)

    def test_decreasing_direction(self):
        f = table_generator(DECREASING, [(0.0, 1.0), (1.0, 0.0)])
        assert pseudo_inverse(f, 0.25) == pytest.approx(0.75, abs=1e-8)

    def test_top_of_range_inverts_to_one(self):
        g = table_generator(INCREASING, [(0.0, 0.0), (0.5, 0.3), (1.0, 1.0)])
        assert pseudo_inverse(g, 1.0) == 1.0
        f = table_generator(DECREASING, [(0.0, 1.0), (1.0, 0.0)])
        assert pseudo_inverse(f, 0.0) == 1.0

    def test_requires_full_span(self):
        with pytest.raises(ValueError):
            table_generator(INCREASING, [(0.1, 0.0), (1.0, 1.0)])


class TestVerifyGenerator:
    def test_catalog_passes(self):
        for g in (yager_f(2.0), power_gp(0.5), neg_log(), piecewise_f()):
            assert verify_generator(g).holds

    def test_flat_table_fails_strictness(self):
        # table_generator rejects such points; verify_generator reads fn only
        flat = linear_table([(0.0, 0.0), (0.4, 0.5), (0.6, 0.5), (1.0, 1.0)])
        report = verify_generator(Generator(INCREASING, flat, lambda y: y, "flat"))
        assert not report.holds
        assert report.property == "generator-strict-monotonicity"

    def test_wrong_endpoint_fails(self):
        # table_generator rejects such points; verify_generator reads fn only
        bad = linear_table([(0.0, 0.1), (1.0, 1.0)])
        g = Generator(INCREASING, bad, lambda y: y, "bad")
        report = verify_generator(g)
        assert not report.holds
        assert report.property == "generator-endpoint"


class TestDomain:
    def test_eval_rejects_outside_unit_interval(self):
        with pytest.raises(DomainError):
            yager_f(2.0)(1.5)

    def test_pseudo_inverse_rejects_negative(self):
        with pytest.raises(DomainError):
            pseudo_inverse(yager_f(2.0), -0.1)
