import math

import mpmath
import pytest
from hypothesis import example, given, strategies as st

from genimpl.bijections import identity_bijection, power_bijection
from genimpl.connectives import (
    BinaryConnective,
    basic,
    dual_negation,
    dual_of,
    generated_tnorm_connective,
    lukasiewicz_implication,
    mean_connective,
    standard_negation,
    table_connective,
    table_negation,
    yager_connective,
    yager_negation,
    yager_residual_candidate,
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
    ARG_SLACK,
    CHAIN_DPS,
    ImplicationCandidate,
    ig_candidate,
    ign_candidate,
    mean_residual,
    natural_negation,
    phi_conjugate_candidate,
    piecewise_f_implication,
    residual_candidate,
    residual_numeric,
    sn_candidate,
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

    def test_scan_refines_past_the_last_feasible_scan_point(self):
        # C(x, .) falls to 0.5 and climbs back: {t | C(x,t) <= 0.7} = [0.3, 0.7],
        # whose end lies inside a scan cell
        vee = BinaryConnective(lambda x, t: 1.0 - t if t <= 0.5 else t, "vee")
        got = residual_numeric(vee, 0.5, 0.7)
        assert 0.7 - 1 / (4096 * 1024) <= got <= 0.7
        assert vee(0.5, got) <= 0.7

    def test_scan_with_no_feasible_point_gives_zero(self):
        # C(x, .) dips to 0.75 and climbs back, never down to y = 0.5
        calls = []

        def dip(x, t):
            calls.append(t)
            return 0.8 - 0.1 * t if t <= 0.5 else 0.7 + 0.1 * t

        assert residual_numeric(BinaryConnective(dip, "dip"), 0.5, 0.5) == 0.0
        assert len(calls) > 4096  # the fallback scan ran

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
        assert yager_residual_candidate(2.0).fn(0.5, 0.2) == pytest.approx(
            1.0 - math.sqrt(0.39), abs=1e-12
        )

    @given(unit, unit)
    def test_ordering_half(self, x, y):
        if x <= y:
            assert yager_residual_candidate(3.0).fn(x, y) == 1.0

    def test_p_one_is_lukasiewicz(self):
        for x in (0.0, 0.3, 0.9):
            for y in (0.1, 0.5, 1.0):
                assert yager_residual_candidate(1.0).fn(x, y) == pytest.approx(
                    lukasiewicz_implication(x, y), abs=1e-12
                )

    def test_matches_numeric_residual(self, small_spec):
        t = yager_connective(2.0)
        for x in small_spec.grid():
            for y in small_spec.grid():
                assert residual_numeric(t, x, y) == pytest.approx(
                    yager_residual_candidate(2.0).fn(x, y), abs=1e-6
                )

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            yager_residual_candidate(0.0)

    @pytest.mark.parametrize("p", [800.0, 1000.0])
    def test_large_p_does_not_underflow(self, p):
        # (1-y)^p underflows for y >= 0.6 at these p; R(0.7, 0.6) read 1.0
        assert yager_residual_candidate(1000.0).fn(0.7, 0.6) == 0.6
        xs = [0.0, 0.3, 0.5, 0.6, 0.61, 0.7, 0.75, 0.9, 0.95, 0.999, 1.0]
        for x in xs:
            for y in xs:
                v = yager_residual_candidate(p).fn(x, y)
                assert abs(v - yager_residual_50(p, x, y)) < 1e-12, (x, y)
                assert (v == 1.0) == (x <= y), (x, y)


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
            assert r(x, y) == yager_residual_candidate(2.0).fn(x, y)
        assert r(0.748, 0.073) == 0.10790975792804458

    def test_answers_at_precision_of_arguments(self):
        r = residual_candidate(generated_tnorm_connective(yager_f(2.0)))
        assert r(0.3, 0.3) == 1.0
        assert type(r(0.9, 0.1)) is float
        with mpmath.workdps(40):
            x, y = mpmath.mpf("0.9"), mpmath.mpf("0.1")
            v = r(x, y)
            assert isinstance(v, mpmath.mpf)
            assert abs(v - yager_residual_50(2.0, x, y)) < mpmath.mpf(10) ** -35

    def test_large_p_does_not_underflow(self):
        # the generator's f(0.6) - f(0.7) underflowed to 0: R(0.7, 0.6) read 1.0
        r = residual_candidate(yager_connective(1000.0))
        assert r(0.7, 0.6) == 0.6

    def test_table_tnorm_takes_the_closed_form(self, small_spec):
        table_f = table_generator(DECREASING, [(0.0, 1.0), (0.5, 0.3), (1.0, 0.0)])
        c = generated_tnorm_connective(table_f)
        r = residual_candidate(c)
        assert r.fn is c.residual.fn and r.parts is c.residual.parts
        for x, y in small_spec.pairs():
            assert r(x, y) == pytest.approx(residual_numeric(c, x, y), abs=1e-15), (x, y)


def _exact_residual(value):
    """The residual at 50 digits: 1 for x <= y, else ``value(x, y)``."""
    def exact(x, y):
        with mpmath.workdps(50):
            x, y = mpmath.mpf(x), mpmath.mpf(y)
            return mpmath.mpf(1) if x <= y else value(x, y)
    return exact


GOEDEL = _exact_residual(lambda x, y: y)
DRASTIC = _exact_residual(lambda x, y: 1 if x < 1 else y)

CLOSED_FORMS = [
    (basic("min"), GOEDEL),
    (basic("product"), _exact_residual(lambda x, y: y / x)),
    (basic("lukasiewicz"), _exact_residual(lambda x, y: 1 - x + y)),
    (basic("drastic"), DRASTIC),
    (yager_connective(0.0), DRASTIC),
    (yager_connective(math.inf), GOEDEL),
]


class TestResidualRouting:
    """Which operators carry their residual in closed form, and which bisect."""

    @pytest.mark.parametrize("c, exact", CLOSED_FORMS,
                             ids=[c.label for c, _ in CLOSED_FORMS])
    def test_closed_form_matches_bisection_on_default_pairs(self, c, exact):
        r = residual_candidate(c)
        for x, y in SampleSpec().pairs():
            got, numeric = r(x, y), residual_numeric(c, x, y)
            assert abs(got - numeric) <= 2.0**-53, (x, y)
            if got != numeric:  # then each is within an ulp of the residual
                assert abs(got - exact(x, y)) < 2.0**-52, (x, y)

    def test_catalog_tnorms_carry_it_others_bisect(self, small_spec):
        table_f = table_generator(DECREASING, [(0.0, 1.0), (0.5, 0.3), (1.0, 0.0)])
        carried = [*(basic(n) for n in ("min", "minimum", "product", "lukasiewicz",
                                        "drastic")),
                   *(yager_connective(p) for p in (0.0, 0.5, 2.0, math.inf)),
                   generated_tnorm_connective(yager_f(2.0)),
                   generated_tnorm_connective(table_f)]
        for c in carried:
            r = residual_candidate(c)
            assert r.fn is c.residual.fn and r.parts is c.residual.parts
            assert r.label == f"R[{c.label}]"
            assert (r.parts is None) == (c.parts is None)  # Yager and generated: both
        bisected = [dual_of(yager_connective(2.0)), mean_connective(),
                    table_connective([[0.0, 0.0], [0.0, 1.0]])]
        for c in bisected:
            assert c.residual is None
            r = residual_candidate(c)
            for x, y in small_spec.pairs()[::7]:
                assert r(x, y) == residual_numeric(c, x, y)


class TestGeneratedImplications:
    @given(unit, unit)
    def test_neg_log_gives_reichenbach(self, x, y):
        got = ig_candidate(neg_log()).fn(x, y)
        assert got == pytest.approx(1.0 - x + x * y, abs=1e-9)

    def test_standard_negation_recovers_plain_form(self):
        # against g^(-1)(g(1-x) + g(y)) written out here, at the chain's
        # precision and rounded once, with S_g's neutral element 0 exact:
        # 1 - x at y = 0 and y at x = 1
        n = standard_negation()
        table_g = table_generator(INCREASING, [(0.0, 0.0), (0.5, 0.3), (1.0, 1.0)])
        for g in (power_gp(0.5), power_gp(2.0), power_gp(3.7), neg_log(),
                  piecewise_f(), table_g):
            ig, ign = ig_candidate(g), ign_candidate(g, n)
            for x, y in SampleSpec(grid_n=11).pairs():
                with mpmath.workdps(CHAIN_DPS):
                    a, b = 1 - mpmath.mpf(x), mpmath.mpf(y)
                    s = g.fn(a) + g.fn(b)
                    plain = float(a if b == 0 else b if a == 0 else pseudo_inverse(g, s))
                assert ig.fn(x, y) == plain, (g.label, x, y)
                assert ign.fn(x, y) == plain, (g.label, x, y)

    def test_negation_not_rounded_inside_the_chain(self, small_spec):
        # N(x) = (1 - x^3)^(1/3) enters g at the chain's precision; a value
        # rounded to a double first is off by up to 7e-6 at p = 3.7, which
        # fails CP against N itself
        n = dual_negation(yager_negation(3.0))
        assert ign_candidate(power_gp(2.0), n).fn(0.05, 0.0) == 0.9999583315971017
        i = ign_candidate(power_gp(3.7), n)
        assert i(0.1, 0.0) == 0.999666555493786
        assert check_property(i, "CP", small_spec, n).holds

    def test_ign_matches_yager_residual(self):
        g = power_gp(2.0)
        n = yager_negation(2.0)
        assert ign_candidate(g, n).fn(0.5, 0.2) == pytest.approx(
            yager_residual_candidate(2.0).fn(0.5, 0.2), abs=1e-12
        )

    def test_rejects_decreasing_generator(self):
        with pytest.raises(DirectionError):
            ig_candidate(yager_f(2.0))

    @pytest.mark.parametrize("g", [neg_log(), power_gp(2.0)])
    def test_answers_at_precision_of_arguments(self, g):
        # g(0.1) + g(0.1) < g(1), so the sum is not saturated
        assert type(ig_candidate(g).fn(0.9, 0.1)) is float
        v = ig_candidate(g).fn(mpmath.mpf("0.9"), mpmath.mpf("0.1"))
        assert isinstance(v, mpmath.mpf)
        assert float(v) == pytest.approx(ig_candidate(g).fn(0.9, 0.1), abs=1e-15)


# I^g_N(x, y) = S_g(N(x), y) and 0 is S_g's neutral element, so I(1, y) = y
# and I(x, 0) = N(x), with N at CHAIN_DPS rounded once; an mpf point yields
# an mpf, a table negation's float node value included
TABLE_N = table_negation([(0, 1), (0.4, 0.2), (0.6, 0.6), (1, 0)])
NEUTRAL_CASES = [
    *((ig_candidate(g), standard_negation())
      for g in (power_gp(2.0), power_gp(20.0), power_gp(1000.0), neg_log(), piecewise_f(),
                table_generator(INCREASING, [(0.0, 0.0), (0.5, 0.3), (1.0, 1.0)]))),
    (ign_candidate(power_gp(1000.0), yager_negation(2.0)), yager_negation(2.0)),
    (ign_candidate(neg_log(), TABLE_N), TABLE_N),
]


@pytest.mark.parametrize("i, n", NEUTRAL_CASES, ids=[i.label for i, _ in NEUTRAL_CASES])
def test_exact_at_the_neutral_element(i, n):
    points = SampleSpec().points_1d()
    with mpmath.workdps(CHAIN_DPS):
        wide_n = [n(mpmath.mpf(t)) for t in points]
    for t, n_t in zip(points, wide_n):
        assert i.fn(1.0, t) == t and i.fn(t, 0.0) == float(n_t), t
    with mpmath.workdps(CHAIN_DPS):
        for t, n_t in zip(points[::10], wide_n[::10]):
            t = mpmath.mpf(t)
            for got, want in ((i.fn(1, t), t), (i.fn(t, 0), n_t)):
                assert got == want and isinstance(got, mpmath.mpf), t


def test_exact_at_the_neutral_element_at_known_points():
    # each read 1.0, 1.0 and 0.9882807668026686 when the sum was taken
    # without S_g's neutral element
    assert ig_candidate(power_gp(1000.0)).fn(1.0, 0.5) == 0.5
    assert ig_candidate(power_gp(1000.0)).fn(0.5, 0.0) == 0.5
    assert ig_candidate(power_gp(20.0)).fn(0.01171875, 0.0) == 0.98828125


def test_table_negation_node_enters_the_chain_once():
    # N(0.4) = 0.2 is a table node, where N answers a float; g still takes it
    # at CHAIN_DPS: 1 - sqrt(1 - g(0.2) - g(0.1)) rounds to ...314, while g in
    # double read 0.329179606750063
    assert ign_candidate(power_gp(2.0), TABLE_N).fn(0.4, 0.1) == 0.32917960675006314


POWER_P = (0.1, 0.5, 1.0, 2.0, 3.7, 20.0, 1000.0)
# every catalog increasing generator, and tables: a plain one, a steep
# one (slope 5e5, then a range past 1) and a near-flat one (slope 2e-9)
INCREASING_GENERATORS = [
    *map(power_gp, POWER_P),
    neg_log(),
    piecewise_f(),
    table_generator(INCREASING, [(0.0, 0.0), (0.5, 0.3), (1.0, 1.0)]),
    table_generator(INCREASING, [(0.0, 0.0), (1e-6, 0.5), (0.5, 0.7), (1.0, 40.0)]),
    table_generator(INCREASING, [(0.0, 0.0), (0.5, 1e-9), (0.75, 0.5), (1.0, 0.6)]),
]


# p of each power_gp(p) above, by label, for the closed form in wide_ig
POWER_GP_P = {power_gp(p).label: p for p in POWER_P}


def wide_ig(g, x, y):
    """I^g(x, y) at CHAIN_DPS, unrounded.  For power_gp(p) it is the closed
    form 1 - max(x^p + (1-y)^p - 1, 0)^(1/p) with both additions exact:
    the 40-digit chain adds x^p to a sum near 1, which loses x^p near
    saturation (at p = 20, x = 0.0322, y = 0 it reads 6e-15 below 1 - x).
    mpmath.fsum rounds as well (1.0 at p = 1000, (0.5, 0)).  Every other
    generator takes the chain."""
    with mpmath.workdps(CHAIN_DPS):
        x, y = mpmath.mpf(x), mpmath.mpf(y)
        p = POWER_GP_P.get(g.label)
        if p is None:
            return ig_candidate(g).fn(x, y)
        s = mpmath.fadd(mpmath.fadd(x**p, (1 - y) ** p, exact=True), -1, exact=True)
        return 1 - max(s, 0) ** (1 / mpmath.mpf(p))


class TestIgBounds:
    @pytest.mark.parametrize("g", INCREASING_GENERATORS, ids=lambda g: g.label)
    def test_encloses_wide_value_on_plan_pairs(self, g):
        bounds = ig_candidate(g).bounds
        for x, y in SampleSpec(grid_n=41, random_count=400).pairs():
            lo, hi = bounds(x, y, y)
            assert lo <= wide_ig(g, x, y) <= hi, (x, y)

    @given(st.sampled_from(INCREASING_GENERATORS), unit, unit, unit)
    @example(power_gp(20.0), 0.03218994569537182, 0.0, 0.0)
    @example(power_gp(20.0), 0.01171875, 0.0, 0.0)
    @example(power_gp(1000.0), 0.5, 0.0, 0.0)
    def test_encloses_wide_values_over_an_interval(self, g, x, y1, y2):
        y_lo, y_hi = sorted((y1, y2))
        lo, hi = ig_candidate(g).bounds(x, y_lo, y_hi)
        for y in (y_lo, 0.5 * (y_lo + y_hi), y_hi):
            assert lo <= wide_ig(g, x, y) <= hi, (g.label, x, y)

    # (x, y_lo, y_hi) for power_gp 2, where g^(-1)(s) = 1 - sqrt(1 - s)
    # saturates at g(1) = 1: x = 0 and y = 1 give 1, x = 1 gives y, and at
    # (0.6, 0.2) g(0.4) + g(0.2) = 1 exactly; then one y interval.  The
    # chain's slack alone left the lower end 3.4e-7 low at (0, 0), (1, 1)
    # and x = 1 with y next to 1, and 1e-13 low elsewhere at x = 0, y = 1
    SATURATION = [(0.0, 0.3, 0.3), (0.0, 0.0, 0.0), (1.0, 0.3, 0.3), (1.0, 0.0, 0.0),
                  (1.0, 0.9999999, 0.9999999), (1.0, 1.0, 1.0), (0.4, 1.0, 1.0),
                  (0.6, 0.2, 0.2), (0.5, 0.1, 1.0)]

    @pytest.mark.parametrize("x, y_lo, y_hi", SATURATION)
    def test_lower_end_is_at_least_max_of_arguments(self, x, y_lo, y_hi):
        g = power_gp(2.0)
        lo, hi = ig_candidate(g).bounds(x, y_lo, y_hi)
        assert lo >= max(y_lo, 1.0 - x) - ARG_SLACK
        for y in (y_lo, 0.5 * (y_lo + y_hi), y_hi):
            assert lo <= wide_ig(g, x, y) <= hi, y

    @pytest.mark.parametrize("g", INCREASING_GENERATORS, ids=lambda g: g.label)
    def test_upper_end_at_x_one_is_capped_at_y(self, g):
        # I^g(1, y) = y; the chain's slack alone leaves the upper end a
        # VALUE_SLACK above y, 6.7e-14 at y = 0 for power_gp 7
        bounds = ig_candidate(g).bounds
        for y in SampleSpec(grid_n=41, random_count=40).points_1d():
            for y_lo in (y, 0.5 * y):
                lo, hi = bounds(1.0, y_lo, y)
                assert lo <= wide_ig(g, 1.0, y) <= hi <= y + ARG_SLACK, (y_lo, y)

    def test_every_ig_gets_bounds(self):
        for g in INCREASING_GENERATORS:
            assert ig_candidate(g).bounds is not None, g.label
        assert ign_candidate(power_gp(2.0), yager_negation(2.0)).bounds is None


class TestSNImplication:
    @given(unit, unit)
    def test_kleene_dienes(self, x, y):
        got = sn_candidate(basic("min"), standard_negation()).fn(x, y)
        # S = min is not a t-conorm; use the dual of product for a real one
        assert got == min(1.0 - x, y)

    def test_lukasiewicz_from_bounded_sum(self):
        from genimpl.connectives import dual_of

        s = dual_of(basic("lukasiewicz"))
        n = standard_negation()
        for x in (0.2, 0.7):
            for y in (0.3, 0.9):
                assert sn_candidate(s, n).fn(x, y) == pytest.approx(
                    lukasiewicz_implication(x, y), abs=1e-12
                )


class TestPhiConjugate:
    def test_identity_is_no_op(self):
        ilk = residual_candidate(basic("lukasiewicz"))
        phi = identity_bijection()
        for x in (0.0, 0.4, 1.0):
            for y in (0.2, 0.8):
                assert phi_conjugate_candidate(ilk, phi).fn(x, y) == ilk(x, y)

    def test_square_conjugate_value(self):
        ilk = residual_candidate(basic("lukasiewicz"))
        phi = power_bijection(2.0)
        # phi^-1(min(1 - x^2 + y^2, 1))
        assert phi_conjugate_candidate(ilk, phi).fn(0.8, 0.2) == pytest.approx(
            math.sqrt(1.0 - 0.64 + 0.04), abs=1e-12
        )


class TestPiecewiseImplication:
    def test_closed_form_matches_generator_route(self, small_spec):
        g = piecewise_f()
        n = standard_negation()
        for x in small_spec.points_1d():
            for y in (0.0, 0.2, 0.45, 0.5, 0.55, 0.8, 1.0):
                assert piecewise_f_implication(x, y) == pytest.approx(
                    ign_candidate(g, n).fn(x, y), abs=1e-9
                )

    def test_plateau_branch(self):
        # x - y in [0.25, 0.5) with x >= 0.5, y <= 0.5 pins the value at 0.5
        assert piecewise_f_implication(0.6, 0.3) == 0.5
        assert piecewise_f_implication(0.75, 0.4) == 0.5


class TestNaturalNegation:
    def test_of_lukasiewicz_is_standard(self):
        n = natural_negation(residual_candidate(basic("lukasiewicz")))
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
            assert n(x) == yager_residual_candidate(p).fn(x, 0.0), x


class TestMeanResidual:
    def test_boundary_violation(self):
        assert mean_residual(0.0, 0.0) == 0.0

    def test_interior_value(self):
        assert mean_residual(0.5, 0.5) == pytest.approx(0.5)
