import json

import pytest

from genimpl.bijections import identity_bijection, power_bijection
from genimpl.classes import (
    CONSISTENT,
    EXCLUDED,
    _right_continuity,
    _surface_continuity,
    conjugate_lk_probe,
    r_probe,
    sn_probe,
)
from genimpl.connectives import basic, yager_residual_candidate
from genimpl.implications import (
    ImplicationCandidate,
    build_intersection_member,
    lukasiewicz_candidate,
    piecewise_f_candidate,
    residual_candidate,
)
from genimpl.properties import check_self_dual_phi
from genimpl.reports import SampleSpec
from genimpl.specs import parse_implication


class TestSNProbe:
    def test_lukasiewicz_consistent(self, small_spec):
        assert sn_probe(lukasiewicz_candidate(), small_spec).overall == CONSISTENT

    def test_plateau_implication_excluded_via_ep(self, small_spec):
        result = sn_probe(piecewise_f_candidate(), small_spec)
        assert result.overall == EXCLUDED
        failed = [r.property for r in result.verdicts if not r.holds]
        assert "EP" in failed
        assert result.witness is not None

    def test_goedel_excluded_by_discontinuous_negation(self, small_spec):
        # I_GD(x, 0) jumps from 1 to 0 at x = 0, so N_I is not continuous
        goedel = ImplicationCandidate(
            lambda x, y: 1.0 if x <= y else y, "I_GD"
        )
        result = sn_probe(goedel, small_spec)
        assert result.overall == EXCLUDED
        failed = [r.property for r in result.verdicts if not r.holds]
        assert "negation-continuity" in failed

    def test_table_generated_implication_has_a_strong_negation(self, small_spec):
        # N_I(0) = I(0, 0) = g^(-1)(g(1)) is exactly 1 for a table generator
        i = parse_implication({
            "kind": "ign",
            "g": {"kind": "table", "direction": "increasing",
                  "points": [[0, 0], [0.5, 0.3], [1, 1]]},
            "N": {"kind": "dual", "of": {"kind": "yager_np", "p": 3}},
        })
        continuity = sn_probe(i, small_spec).verdicts[-1]
        assert continuity.details["strong"]
        assert continuity.details["involution_discrepancy"] < 1e-12


class TestRProbe:
    def test_yager_residual_consistent(self, small_spec):
        assert (
            r_probe(yager_residual_candidate(2.0), small_spec).overall
            == CONSISTENT
        )

    def test_reichenbach_excluded_by_op(self, small_spec):
        rc = ImplicationCandidate(lambda x, y: 1.0 - x + x * y, "RC")
        result = r_probe(rc, small_spec)
        assert result.overall == EXCLUDED
        failed = [r.property for r in result.verdicts if not r.holds]
        assert "OP" in failed


class TestConjugateLKProbe:
    def test_conjugates_consistent(self, small_spec):
        for phi in (identity_bijection(), power_bijection(2.0)):
            member = build_intersection_member(phi)
            assert conjugate_lk_probe(member, small_spec).overall == CONSISTENT

    def test_plateau_implication_excluded(self, small_spec):
        result = conjugate_lk_probe(piecewise_f_candidate(), small_spec)
        assert result.overall == EXCLUDED

    def test_result_serializes(self, small_spec):
        result = conjugate_lk_probe(lukasiewicz_candidate(), small_spec)
        d = result.as_dict()
        assert d["class_id"] == "phi-conjugate-LK"
        assert d["overall"] == CONSISTENT
        assert len(d["verdicts"]) == 3


class TestIntersectionMember:
    def test_identity_gives_lukasiewicz(self, small_spec):
        member = build_intersection_member(identity_bijection())
        ilk = lukasiewicz_candidate()
        for x in small_spec.grid():
            for y in small_spec.grid():
                assert member(x, y) == ilk(x, y)

    def test_conjugate_keeps_op(self, small_spec):
        member = build_intersection_member(power_bijection(0.5))
        for x, y in small_spec.pairs():
            assert (member(x, y) == 1.0) == (x <= y)


class TestSelfDualPhi:
    def test_identity_is_self_dual(self, small_spec):
        assert check_self_dual_phi(identity_bijection(), small_spec).holds

    def test_square_is_not(self, small_spec):
        report = check_self_dual_phi(power_bijection(2.0), small_spec)
        assert not report.holds
        assert report.witness is not None


# The exact witnesses of the continuity probes on the default plan, key
# order included: x-direction jumps are looked for before y-direction ones
# at each grid cell, and refine_jump narrows the offending interval.
CONTINUITY_WITNESSES = [
    ("x-step piecewise_f", _surface_continuity, piecewise_f_candidate(),
     '{"x1": 0.49999755859375, "x2": 0.5, "y": 0.03, '
     '"value1": 0.5600024414062501, "value2": 0.5}', 0.06000244140625011),
    ("y-step", _surface_continuity,
     ImplicationCandidate(lambda x, y: 0.5 * x if y < 0.5 else 0.5 + 0.5 * x, "y-step"),
     '{"x": 0.0, "y1": 0.49999755859375, "y2": 0.5, "value1": 0.0, "value2": 0.5}', 0.5),
    # I_GD jumps in x and in y at the origin; the x-direction comes first
    ("both-steps goedel", _surface_continuity, residual_candidate(basic("min")),
     '{"x1": 0.0, "x2": 2.44140625e-06, "y": 0.0, "value1": 1.0, "value2": 0.0}', 1.0),
    ("right-step", _right_continuity,
     ImplicationCandidate(lambda x, y: 1.0 if y > 0.5 else 0.0, "right-step"),
     '{"x": 0.0, "y": 0.5, "diffs": [1.0, 1.0, 1.0]}', 1.0),
]


@pytest.mark.parametrize("probe, op, witness, jump",
                         [c[1:] for c in CONTINUITY_WITNESSES],
                         ids=[c[0] for c in CONTINUITY_WITNESSES])
def test_continuity_witness_is_pinned(probe, op, witness, jump):
    report = probe(op, SampleSpec())
    assert not report.holds
    assert json.dumps(report.witness) == witness
    assert report.max_discrepancy == jump
