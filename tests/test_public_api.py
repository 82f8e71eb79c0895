"""The package's public names, pinned: a change to ``genimpl.__all__``
fails here, and is then recorded with its reason in CHANGES.md.  So are
the fields of the operator type every connective and implication shares."""

import dataclasses

import genimpl

PUBLIC = [
    "Bijection", "BinaryConnective", "ClassProbeResult", "Generator",
    "ImplicationCandidate", "Negation", "PropertyReport", "SampleSpec",
    "archimedean_witness", "basic", "bijections", "build_intersection_member",
    "check_implication_axioms", "check_property", "check_self_dual_phi",
    "check_tnorm_axioms", "classes", "compare_surfaces", "conjugate_lk_probe",
    "connectives", "dual_of", "find_associativity_counterexample",
    "generated_tconorm_connective", "generated_tnorm_connective", "generators",
    "identity_bijection", "ig_candidate", "ign_candidate", "implications",
    "lukasiewicz_implication", "mean_residual", "n_ary_power",
    "natural_negation", "neg_log", "phi_conjugate_candidate", "piecewise_f",
    "piecewise_f_implication", "power_bijection", "power_gp",
    "probe_continuity", "properties", "pseudo_inverse", "quasi_arithmetic_mean",
    "r_probe", "reports", "residual_numeric", "sn_candidate", "sn_probe",
    "standard_negation", "verify_generator", "yager_connective", "yager_f",
    "yager_negation", "yager_residual_candidate",
]


def test_all_is_pinned():
    assert sorted(genimpl.__all__) == PUBLIC


def test_operator_fields_are_pinned():
    fields = [f.name for f in dataclasses.fields(genimpl.BinaryConnective)]
    assert fields == ["fn", "label", "residual", "bounds", "parts"]
