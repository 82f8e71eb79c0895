import json

import pytest

from genimpl.connectives import (
    BinaryConnective,
    Negation,
    basic,
    mean_connective,
    standard_negation,
    yager_negation,
)
from genimpl.implications import (
    ImplicationCandidate,
    lukasiewicz_candidate,
    mean_residual_candidate,
    piecewise_f_candidate,
    piecewise_f_implication,
    yager_residual_candidate,
)
from genimpl.properties import (
    check_implication_axioms,
    check_negation_axioms,
    check_property,
    check_tnorm_axioms,
    compare_surfaces,
    find_associativity_counterexample,
    probe_continuity,
    refine_jump,
)
from genimpl.reports import SampleSpec


class TestImplicationAxioms:
    def test_lukasiewicz_passes(self, small_spec):
        assert check_implication_axioms(
            lukasiewicz_candidate(), small_spec
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
        report = check_property(lukasiewicz_candidate(), prop, small_spec)
        assert report.holds, report.witness

    def test_cp_with_standard_negation(self, small_spec):
        report = check_property(
            lukasiewicz_candidate(), "CP", small_spec,
            negation=standard_negation(),
        )
        assert report.holds

    def test_cp_needs_negation(self, small_spec):
        with pytest.raises(ValueError):
            check_property(lukasiewicz_candidate(), "CP", small_spec)

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

    def test_unknown_property(self, small_spec):
        with pytest.raises(ValueError):
            check_property(lukasiewicz_candidate(), "XX", small_spec)


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


class TestCompareSurfaces:
    def test_identical_surfaces(self, small_spec):
        r = compare_surfaces(
            lukasiewicz_candidate(), lukasiewicz_candidate(), small_spec
        )
        assert r.holds
        assert r.max_discrepancy == 0.0

    def test_reports_argmax(self, small_spec):
        r = compare_surfaces(
            lukasiewicz_candidate(), yager_residual_candidate(2.0), small_spec
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


class TestReportReplay:
    def test_ep_report_rebuilds_its_plan(self):
        plan = SampleSpec(grid_n=11, random_count=20, seed=7,
                          triple_grid_n=5, triple_random_count=30)
        report = check_property(lukasiewicz_candidate(), "EP", plan)
        assert SampleSpec(**report.sample_spec) == plan
        replayed = SampleSpec(**json.loads(report.to_json())["sample_spec"])
        again = check_property(lukasiewicz_candidate(), "EP", replayed)
        assert again.as_dict() == report.as_dict()


class TestSampleSpec:
    @pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan"), float("inf")])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            SampleSpec(tolerance=tol)
