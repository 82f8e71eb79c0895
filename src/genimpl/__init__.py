"""Generated fuzzy connectives, residual implications, and a numeric
property-verification engine with witness-carrying reports."""

from .bijections import Bijection, identity_bijection, power_bijection
from .classes import ClassProbeResult, conjugate_lk_probe, r_probe, sn_probe
from .connectives import (
    BinaryConnective,
    Negation,
    archimedean_witness,
    basic,
    dual_of,
    generated_tconorm_connective,
    generated_tnorm_connective,
    lukasiewicz_implication,
    n_ary_power,
    quasi_arithmetic_mean,
    standard_negation,
    yager_connective,
    yager_negation,
    yager_residual_candidate,
)
from .generators import (
    Generator,
    neg_log,
    piecewise_f,
    power_gp,
    pseudo_inverse,
    verify_generator,
    yager_f,
)
from .implications import (
    ImplicationCandidate,
    build_intersection_member,
    ig_candidate,
    ign_candidate,
    mean_residual,
    natural_negation,
    phi_conjugate_candidate,
    piecewise_f_implication,
    residual_numeric,
    sn_candidate,
)
from .properties import (
    check_implication_axioms,
    check_property,
    check_self_dual_phi,
    check_tnorm_axioms,
    compare_surfaces,
    find_associativity_counterexample,
    probe_continuity,
)
from .reports import PropertyReport, SampleSpec

__all__ = [name for name in dir() if not name.startswith("_")]
