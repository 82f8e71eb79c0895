import json
import random
import tracemalloc

import mpmath
import pytest

from genimpl.bijections import power_bijection
from genimpl.connectives import (
    BinaryConnective,
    Negation,
    basic,
    dual_of,
    generated_tnorm_connective,
    mean_connective,
    phi_negation,
    quasi_arithmetic_mean,
    standard_negation,
    yager_connective,
    yager_negation,
    yager_residual_candidate,
)
from genimpl.generators import neg_log, yager_f
from genimpl.implications import (
    CHAIN_DPS,
    ImplicationCandidate,
    build_intersection_member,
    chain_eval,
    ig_candidate,
    mean_residual,
    mean_residual_candidate,
    piecewise_f_candidate,
    piecewise_f_implication,
    residual_candidate,
    residual_numeric,
)
from genimpl.properties import (
    OP_SLACK,
    _check_t1,
    _check_t4,
    _line_values,
    _pair_values,
    check_implication_axioms,
    check_negation_axioms,
    check_property,
    check_self_dual_phi,
    check_tnorm_axioms,
    compare_surfaces,
    find_associativity_counterexample,
    probe_continuity,
    refine_jump,
)
from genimpl.reports import SampleSpec, failing, passing

LUKASIEWICZ = residual_candidate(basic("lukasiewicz"))


class TestImplicationAxioms:
    def test_lukasiewicz_passes(self, small_spec):
        assert check_implication_axioms(
            LUKASIEWICZ, small_spec
        ).holds

    def test_mean_residual_fails_boundary(self, small_spec):
        report = check_implication_axioms(mean_residual_candidate(), small_spec)
        assert not report.holds
        assert report.property == "I3"
        assert report.witness == {
            "x": 0.0, "y": 0.0, "value": 0.0, "expected": 1.0,
        }

    def test_monotonicity_violation_caught(self, small_spec):
        # corners are right, but 1-|x-y| rises with x below the diagonal
        bad = ImplicationCandidate(lambda x, y: 1.0 - abs(x - y), "closeness")
        report = check_implication_axioms(bad, small_spec)
        assert not report.holds
        assert report.property in ("I1", "I2")


class TestNamedProperties:
    @pytest.mark.parametrize("prop", ["NP", "EP", "IP", "OP"])
    def test_lukasiewicz_has_all(self, prop, small_spec):
        report = check_property(LUKASIEWICZ, prop, small_spec)
        assert report.holds, report.witness

    def test_cp_with_standard_negation(self, small_spec):
        report = check_property(
            LUKASIEWICZ, "CP", small_spec,
            negation=standard_negation(),
        )
        assert report.holds

    def test_cp_needs_negation(self, small_spec):
        with pytest.raises(ValueError):
            check_property(LUKASIEWICZ, "CP", small_spec)

    def test_cp_detects_wrong_negation(self, small_spec):
        report = check_property(
            yager_residual_candidate(2.0), "CP", small_spec,
            negation=standard_negation(),
        )
        assert not report.holds
        assert report.witness is not None

    def test_cp_with_matching_negation(self, small_spec):
        report = check_property(
            yager_residual_candidate(2.0), "CP", small_spec,
            negation=yager_negation(2.0),
        )
        assert report.holds

    def test_ep_failure_carries_both_sides(self, small_spec):
        report = check_property(piecewise_f_candidate(), "EP", small_spec)
        assert not report.holds
        w = report.witness
        assert abs(w["left"] - w["right"]) > small_spec.tolerance

    def test_op_fails_for_reichenbach(self, small_spec):
        rc = ImplicationCandidate(lambda x, y: 1.0 - x + x * y, "RC")
        report = check_property(rc, "OP", small_spec)
        assert not report.holds

    def test_op_near_the_diagonal_is_decided_wide(self):
        # I(0.49353989595376424, 0.4935062888839352) of the Yager residual
        # at p = 0.5 is 0.99999999944250412...: within tol of 1 in double,
        # below 1 at CHAIN_DPS
        report = check_property(yager_residual_candidate(0.5), "OP", SampleSpec(seed=5))
        assert report.holds, report.witness

    @pytest.mark.parametrize("p, value", [(0.5, 0.9999999994425041), (0.3, 1.0)])
    def test_op_of_a_bisected_residual_next_to_the_diagonal_holds(self, p, value):
        # at the same point the bisection reads within tol of 1 at p = 0.5,
        # and at p = 0.3, a double below 1, answers 1 where one of mpf
        # midpoints stays below 1: neither OP hit stands
        i = residual_candidate(yager_connective(p).replace(residual=None))
        assert i.fn.func is residual_numeric
        assert i(0.49353989595376424, 0.4935062888839352) == value
        report = check_property(i, "OP", SampleSpec(seed=5))
        assert report.holds, report.witness

    def test_op_fails_where_the_closed_form_saturates(self, small_spec):
        report = check_property(piecewise_f_candidate(), "OP", small_spec)
        assert not report.holds
        w = report.witness
        assert w["direction"] == "I(x,y)=1 but x>y"
        assert piecewise_f_implication(w["x"], w["y"]) == w["value"] == 1.0
        assert w["x"] - w["y"] == report.max_discrepancy > small_spec.tolerance

    @pytest.mark.parametrize("tnorm", [basic("drastic"), yager_connective(0.0)],
                             ids=["drastic", "yager_tnorm_0"])
    def test_op_fails_where_the_residual_bisects(self, tnorm):
        # dual(dual(T_D)) carries no closed form, and R(x, y) = 1 for every
        # x < 1: a supremum the bisection never leaves hi = 1 for, which it
        # answers as exactly 1 at either precision
        i = residual_candidate(dual_of(dual_of(tnorm)))
        assert i.fn.func is residual_numeric
        report = check_property(i, "OP", SampleSpec())
        assert not report.holds
        w = report.witness
        assert (w["x"], w["y"]) == (0.01, 0.0)
        assert w["direction"] == "I(x,y)=1 but x>y"
        assert i(w["x"], w["y"]) == w["value"] == 1.0
        with mpmath.workdps(CHAIN_DPS):
            assert i(mpmath.mpf(w["x"]), mpmath.mpf(w["y"])) == 1

    def test_unknown_property(self, small_spec):
        with pytest.raises(ValueError):
            check_property(LUKASIEWICZ, "XX", small_spec)

    def test_negation_on_a_law_other_than_cp(self, small_spec):
        with pytest.raises(ValueError, match="NP takes no negation"):
            check_property(LUKASIEWICZ, "NP", small_spec,
                           negation=standard_negation())


class TestTnormAxioms:
    def test_product_passes(self, small_spec):
        assert check_tnorm_axioms(basic("product"), small_spec).holds

    def test_mean_fails_with_witness(self, small_spec):
        report = check_tnorm_axioms(mean_connective(), small_spec)
        assert not report.holds
        assert report.property == "T4"
        assert report.witness is not None

    def test_non_commutative_caught(self, small_spec):
        c = BinaryConnective(lambda x, y: x * y * y, "skew")
        report = check_tnorm_axioms(c, small_spec)
        assert not report.holds
        assert report.property in ("T1", "T4")


def t1_over_all_pairs(t, s):
    """T1 over every pair of ``s.pairs()``, both orders."""
    worst = 0.0
    for x, y in s.pairs():
        d = abs(t(x, y) - t(y, x))
        if d > s.tolerance:
            return failing("T1", s, {"x": x, "y": y, "xy": t(x, y), "yx": t(y, x)}, d)
        worst = max(worst, d)
    return passing("T1", s, worst)


def _skew_off_grid(grid):
    on_grid = set(grid)

    def fn(x, y):
        # product on grid pairs; off the grid, larger first adds 1e-6
        return x * y + (1e-6 if x > y and x not in on_grid else 0.0)

    return BinaryConnective(fn, "skew-off-grid")


def _xyy_with_parts():
    """x * y^2 through parts u(x) = x, v(y) = y^2, cell = u * v."""
    return BinaryConnective(lambda x, y: x * (y * y), "xyy-parts",
                            parts=(lambda x: x, lambda y: y * y, lambda a, b, x, y: a * b))


@pytest.mark.parametrize("seed", [1, 5, 42])
@pytest.mark.parametrize("make, fails_on", [
    (lambda s: BinaryConnective(lambda x, y: x * y * y, "xyy"), "grid"),
    (lambda s: _xyy_with_parts(), "grid"),
    (lambda s: _skew_off_grid(s.grid()), "random"),
    (lambda s: basic("product"), None),
    (lambda s: yager_connective(2.0), None),
], ids=["xyy", "xyy-parts", "skew-off-grid", "product", "yager2"])
def test_t1_once_per_unordered_grid_pair(seed, make, fails_on):
    s = SampleSpec(seed=seed)
    t = make(s)
    report = _check_t1(t, s)
    assert report.as_dict() == t1_over_all_pairs(t, s).as_dict()
    if fails_on is None:
        assert report.holds
        return
    w = report.witness
    if fails_on == "grid":
        assert (w["x"], w["y"]) == (0.01, 0.02)
    else:
        assert w["x"] not in s.grid()
    axioms = check_tnorm_axioms(t, s)
    assert (axioms.property, axioms.witness) == ("T1", w)


# NP, T4, OP, CP and compare_surfaces read the operator's values through
# its grid lines.  Each report must be, byte for byte, the one a loop over
# ``s.pairs()`` (or ``s.points_1d()``) through ``__call__`` gives: the
# reference loops below, written out.


def reference_law(prop, s, points, gap, witness):
    worst = 0.0
    for point in points:
        d = gap(*point)
        if d > s.tolerance:
            return failing(prop, s, witness(*point), d)
        worst = max(worst, d)
    return passing(prop, s, worst)


def reference_np(i, s):
    return reference_law("NP", s, zip(s.points_1d()), lambda y: abs(i(1.0, y) - y),
                         lambda y: {"y": y, "value": i(1.0, y)})


def reference_t4(t, s):
    return reference_law("T4", s, zip(s.points_1d()), lambda x: abs(t(x, 1.0) - x),
                         lambda x: {"x": x, "y": 1.0, "value": t(x, 1.0)})


def reference_op(i, s):
    tol = s.tolerance

    def gap(x, y):
        v = i(x, y)
        if x <= y:
            return abs(v - 1.0)
        if not (v >= 1.0 - tol and x > y + OP_SLACK * tol):
            return 0.0
        return x - y if chain_eval(i, x, y) >= 1 else 0.0

    def witness(x, y):
        direction = "x<=y but I(x,y)<1" if x <= y else "I(x,y)=1 but x>y"
        return {"x": x, "y": y, "value": i(x, y), "direction": direction}

    return reference_law("OP", s, s.pairs(), gap, witness)


def reference_cp(i, s, n):
    return reference_law(
        "CP", s, s.pairs(), lambda x, y: abs(i(x, y) - i(n(y), n(x))),
        lambda x, y: {"x": x, "y": y, "left": i(x, y), "right": i(n(y), n(x)),
                      "negation": n.label})


def reference_compare(f, g, s):
    worst, arg = -1.0, None
    for x, y in s.pairs():
        vf, vg = f(x, y), g(x, y)
        d = abs(vf - vg)
        if d > worst:
            worst, arg = d, {"x": x, "y": y, "left": vf, "right": vg}
    report = (passing("surface-compare", s, worst) if worst <= s.tolerance
              else failing("surface-compare", s, arg, worst))
    report.details = {"argmax": arg}
    return report


YAGER_RESIDUAL = yager_residual_candidate(2.0)
CONJUGATE = build_intersection_member(power_bijection(2.0))
IG = ig_candidate(neg_log())
GENERATED = generated_tnorm_connective(yager_f(2.0))
GOEDEL = residual_candidate(basic("min"))
# raw values outside [0, 1], which the operator clamps: 1.5 at y = 1, -1 at x = 0
OVERSHOOT = BinaryConnective(lambda x, y: 1.5 if y == 1.0 else min(1.0, 1.0 - x + y), "over")
UNDERSHOOT = BinaryConnective(lambda x, y: -1.0 if x == 0.0 else x * y, "under")


def small(seed):
    return SampleSpec(grid_n=21, random_count=50, seed=seed)


def law_case(law, op, negation=None, plan=SampleSpec):
    """(check, reference, plan) of NP, OP or CP on op."""
    if law == "CP":
        return (lambda s: check_property(op, law, s, negation),
                lambda s: reference_cp(op, s, negation), plan)
    reference = {"NP": reference_np, "OP": reference_op}[law]
    return lambda s: check_property(op, law, s), lambda s: reference(op, s), plan


def compare_case(f, g, plan=SampleSpec):
    return (lambda s: compare_surfaces(f, g, s), lambda s: reference_compare(f, g, s), plan)


# name: ((check, reference, plan), holds); the parted operators first, then plain ones
PAIR_LAWS = {
    **{f"{law} {op.label}": (law_case(law, op), True)
       for op in (YAGER_RESIDUAL, GENERATED.residual, CONJUGATE) for law in ("NP", "OP")},
    "CP yager_residual N_p": (law_case("CP", YAGER_RESIDUAL, yager_negation(2.0)), True),
    "CP yager_residual standard": (law_case("CP", YAGER_RESIDUAL, standard_negation()), False),
    "CP conjugate N_phi": (law_case("CP", CONJUGATE, phi_negation(power_bijection(2.0))), True),
    **{f"T4 {t.label}": ((lambda s, t=t: _check_t4(t, s), lambda s, t=t: reference_t4(t, s),
                          SampleSpec), holds)
       for t, holds in ((yager_connective(2.0), True), (GENERATED, True),
                        (mean_connective(), False))},
    "compare generated yager 2": (compare_case(GENERATED, yager_connective(2.0)), True),
    "compare generated yager 3.7": (compare_case(GENERATED, yager_connective(3.7)), False),
    "compare yager 2 product": (compare_case(yager_connective(2.0), basic("product")), False),
    "NP ig": (law_case("NP", IG, plan=small), True),
    "OP ig": (law_case("OP", IG, plan=small), False),
    "CP ig standard": (law_case("CP", IG, standard_negation(), small), True),
    "compare ig lukasiewicz": (compare_case(IG, LUKASIEWICZ, small), False),
    "OP piecewise_f": (law_case("OP", piecewise_f_candidate()), False),
    "NP mean_residual": (law_case("NP", mean_residual_candidate()), False),
    "OP lukasiewicz": (law_case("OP", LUKASIEWICZ), True),
    "CP lukasiewicz": (law_case("CP", LUKASIEWICZ, standard_negation()), True),
    "CP goedel": (law_case("CP", GOEDEL, standard_negation()), False),
    "compare yager 1 lukasiewicz": (compare_case(yager_connective(1.0), basic("lukasiewicz")),
                                    True),
    "compare product min": (compare_case(basic("product"), basic("min")), False),
    **{f"{law} over": (law_case(law, OVERSHOOT, negation), True)
       for law, negation in (("NP", None), ("OP", None), ("CP", standard_negation()))},
    "compare over lukasiewicz": (compare_case(OVERSHOOT, LUKASIEWICZ), True),
    "T4 under": ((lambda s: _check_t4(UNDERSHOOT, s), lambda s: reference_t4(UNDERSHOOT, s),
                  SampleSpec), True),
}


@pytest.mark.parametrize("seed", [1, 5, 42])
@pytest.mark.parametrize("case, holds", PAIR_LAWS.values(), ids=PAIR_LAWS)
def test_pair_laws_match_the_pointwise_reference(seed, case, holds):
    check, reference, plan = case
    s = plan(seed=seed)
    report = check(s)
    assert report.to_json() == reference(s).to_json()
    assert report.holds == holds


def test_plain_failures_at_their_known_points():
    (check, _, plan), _ = PAIR_LAWS["OP piecewise_f"]
    w = check(plan()).witness
    assert (w["x"], w["y"], w["direction"]) == (0.02, 0.01, "I(x,y)=1 but x>y")
    (check, _, plan), _ = PAIR_LAWS["NP mean_residual"]
    assert check(plan()).witness == {"y": 0.01, "value": 0.0}


@pytest.mark.parametrize("op", [LUKASIEWICZ, YAGER_RESIDUAL, CONJUGATE])
def test_pair_values_follow_iter_pairs(op):
    s = SampleSpec(grid_n=11, random_count=20, seed=3)
    assert [(x, y) for x, y, _ in _pair_values(op, s)] == list(s.iter_pairs())
    assert [v for _, _, v in _pair_values(op, s)] == [op(x, y) for x, y in s.iter_pairs()]
    assert [t for t, _ in _line_values(op, s, 1.0)] == s.points_1d()


class TestAssociativityCounterexample:
    def test_minimum_is_associative(self, small_spec):
        assert find_associativity_counterexample(basic("min"), small_spec).holds

    def test_disjunction_from_plateau_implication(self, small_spec):
        s = BinaryConnective(
            lambda x, y: piecewise_f_implication(1.0 - x, y), "S_f"
        )
        report = find_associativity_counterexample(s, small_spec)
        assert not report.holds
        w = report.witness
        assert (w["a"], w["b"], w["c"]) == (0.3, 0.35, 0.2)
        assert w["left"] == pytest.approx(0.6, abs=1e-12)
        assert w["right"] == pytest.approx(0.5, abs=1e-12)

    def test_streams_its_triples(self):
        # the 21^3 + 2,000 triples of the default plan take about 0.9 MB as
        # a list; streamed, the check holds the 21 x 21 grid table and little
        # else.  mpmath is imported at the top of this module, and a check
        # that does not escalate loads nothing more
        s = SampleSpec()
        find_associativity_counterexample(basic("product"), s)
        tracemalloc.start()
        try:
            report = find_associativity_counterexample(basic("product"), s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.holds and report.details == {"escalations": 0}
        assert peak < 200_000


class TestCompareSurfaces:
    def test_identical_surfaces(self, small_spec):
        r = compare_surfaces(
            LUKASIEWICZ, LUKASIEWICZ, small_spec
        )
        assert r.holds
        assert r.max_discrepancy == 0.0

    def test_reports_argmax(self, small_spec):
        r = compare_surfaces(
            LUKASIEWICZ, yager_residual_candidate(2.0), small_spec
        )
        assert not r.holds
        arg = r.details["argmax"]
        assert abs(arg["left"] - arg["right"]) == pytest.approx(
            r.max_discrepancy
        )


class TestContinuityProbe:
    def test_standard_negation_continuous(self, small_spec):
        report = probe_continuity(standard_negation(), small_spec)
        assert report.holds
        assert report.details["strict"]
        assert report.details["strong"]

    def test_root_cusp_not_flagged(self, small_spec):
        # N_2 has slope -> -inf at 0 but stays continuous
        report = probe_continuity(yager_negation(2.0), small_spec)
        assert report.details["continuous"]

    def test_step_is_flagged(self, small_spec):
        step = Negation(lambda x: 1.0 if x < 0.5 else 0.0, "step")
        report = probe_continuity(step, small_spec)
        assert not report.holds
        assert report.max_discrepancy > 0.9

    def test_involution_reuses_the_grid_values(self):
        # n at each grid point, then at each of its values: 202, not 303
        calls = []
        n = Negation(lambda x: calls.append(x) or 1.0 - x, "counted")
        report = probe_continuity(n, SampleSpec())
        assert report.details["continuous"] and report.details["strong"]
        assert len(calls) == 2 * SampleSpec().grid_n

    def test_refine_jump_shrinks_on_smooth_map(self):
        jump, lo, hi = refine_jump(lambda x: x * x, 0.0, 1.0)
        assert jump < 1e-3

    def test_refine_jump_keeps_step(self):
        jump, lo, hi = refine_jump(lambda x: 0.0 if x < 0.5 else 1.0, 0.4, 0.6)
        assert jump == 1.0
        assert lo <= 0.5 <= hi


class TestNegationAxioms:
    def test_standard_passes(self, small_spec):
        assert check_negation_axioms(standard_negation(), small_spec).holds

    def test_increasing_map_fails(self, small_spec):
        bad = Negation(lambda x: x, "id")
        report = check_negation_axioms(bad, small_spec)
        assert not report.holds


IG_LOG = ig_candidate(neg_log())
REICHENBACH = ImplicationCandidate(lambda x, y: 1.0 - x + x * y, "reichenbach")
CONSTANT_ONE = ImplicationCandidate(lambda x, y: 1.0, "one")
XYY = BinaryConnective(lambda x, y: x * y * y, "xyy")
PHI2 = power_bijection(2.0)

# (check on a plan, property, witness, the law's gap re-evaluated at the witness)
POINTWISE_WITNESSES = {
    "NP": (
        lambda s: check_property(mean_residual_candidate(), "NP", s),
        "NP", {"y": 0.05, "value": 0.0},
        lambda w: abs(mean_residual(1.0, w["y"]) - w["y"]),
    ),
    "IP": (
        lambda s: check_property(IG_LOG, "IP", s),
        "IP", {"x": 0.05, "value": 0.9525},
        lambda w: abs(IG_LOG(w["x"], w["x"]) - 1.0),
    ),
    "OP-below-diagonal": (
        lambda s: check_property(REICHENBACH, "OP", s),
        "OP", {"x": 0.05, "y": 0.05, "value": 0.9524999999999999,
               "direction": "x<=y but I(x,y)<1"},
        lambda w: abs(REICHENBACH(w["x"], w["y"]) - 1.0),
    ),
    "OP-above-diagonal": (
        lambda s: check_property(CONSTANT_ONE, "OP", s),
        "OP", {"x": 0.05, "y": 0.0, "value": 1.0,
               "direction": "I(x,y)=1 but x>y"},
        lambda w: w["x"] - w["y"],
    ),
    "CP": (
        lambda s: check_property(
            yager_residual_candidate(2.0), "CP", s, standard_negation()
        ),
        "CP", {"x": 0.05, "y": 0.0, "left": 0.6877501000800801,
               "right": 0.95, "negation": "N_standard"},
        lambda w: abs(yager_residual_candidate(2.0).fn(w["x"], w["y"])
                      - yager_residual_candidate(2.0).fn(1.0 - w["y"], 1.0 - w["x"])),
    ),
    "T4": (
        lambda s: check_tnorm_axioms(mean_connective(), s),
        "T4", {"x": 0.0, "y": 1.0, "value": 0.7071067811865476},
        lambda w: abs(quasi_arithmetic_mean(w["x"], 1.0) - w["x"]),
    ),
    "T1": (
        lambda s: check_tnorm_axioms(XYY, s),
        "T1", {"x": 0.05, "y": 0.1, "xy": 0.0005000000000000001,
               "yx": 0.00025000000000000006},
        lambda w: abs(XYY(w["x"], w["y"]) - XYY(w["y"], w["x"])),
    ),
    "negation-endpoint": (
        lambda s: check_negation_axioms(Negation(lambda x: x, "id"), s),
        "negation-endpoint", {"x": 0.0, "value": 0.0, "expected": 1.0},
        lambda w: abs(w["x"] - 1.0),
    ),
    "phi-self-dual": (
        lambda s: check_self_dual_phi(PHI2, s),
        "phi-self-dual", {"x": 0.05, "phi_x": 0.0025000000000000005,
                          "phi_1mx": 0.9025},
        lambda w: abs(PHI2.forward(w["x"]) + PHI2.forward(1.0 - w["x"]) - 1.0),
    ),
}


@pytest.mark.parametrize("case", POINTWISE_WITNESSES)
def test_pointwise_law_witness(case, small_spec):
    check, prop, witness, gap = POINTWISE_WITNESSES[case]
    report = check(small_spec)
    assert not report.holds
    assert report.property == prop
    assert report.witness == witness
    assert gap(report.witness) == report.max_discrepancy


class TestReportReplay:
    def test_ep_report_rebuilds_its_plan(self):
        plan = SampleSpec(grid_n=11, random_count=20, seed=7,
                          triple_grid_n=5, triple_random_count=30)
        report = check_property(LUKASIEWICZ, "EP", plan)
        assert SampleSpec(**report.sample_spec) == plan
        replayed = SampleSpec(**json.loads(report.to_json())["sample_spec"])
        again = check_property(LUKASIEWICZ, "EP", replayed)
        assert again.as_dict() == report.as_dict()


class TestSampleSpec:
    def test_random_pairs_are_the_tail_of_pairs(self, small_spec):
        g = small_spec.grid_n
        assert small_spec.pairs()[g * g:] == small_spec.random_pairs()
        assert len(small_spec.random_pairs()) == small_spec.random_count

    @pytest.mark.parametrize("seed", [1, 42])
    def test_iter_triples_streams_the_grid_then_the_random_triples(self, seed):
        s = SampleSpec(triple_grid_n=3, triple_random_count=4, seed=seed)
        streamed = s.iter_triples()
        assert not isinstance(streamed, list)
        g = [0.0, 0.5, 1.0]
        rng = random.Random(seed)
        assert list(streamed) == s.triples() == [
            (a, b, c) for a in g for b in g for c in g] + [
            (rng.random(), rng.random(), rng.random()) for _ in range(4)]

    @pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan"), float("inf")])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            SampleSpec(tolerance=tol)

    @pytest.mark.parametrize("plan", [
        {"grid_n": 10**6},
        {"grid_n": 1024},
        {"random_count": 2**20},
        {"triple_grid_n": 102},
        {"triple_random_count": 2**20},
    ])
    def test_plan_above_the_cap_is_rejected(self, plan):
        with pytest.raises(ValueError, match="sample plan"):
            SampleSpec(**plan)

    # a one-point triple grid divides by zero in triples(), a zero one with
    # no random triples holds EP on nothing, and a negative count samples
    # nothing; only constructing the plan is needed to see it refused
    @pytest.mark.parametrize("plan, message", [
        ({"triple_grid_n": 1}, "triple_grid_n must be >= 2"),
        ({"triple_grid_n": 0, "triple_random_count": 0}, "triple_grid_n must be >= 2"),
        ({"random_count": -1}, "random counts must be >= 0"),
        ({"triple_random_count": -5}, "random counts must be >= 0"),
    ])
    def test_degenerate_plan_is_rejected(self, plan, message):
        with pytest.raises(ValueError, match=message):
            SampleSpec(**plan)
