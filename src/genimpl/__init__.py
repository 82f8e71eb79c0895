"""Generated fuzzy connectives, residual implications, and a numeric
property-verification engine with witness-carrying reports."""

from .bijections import Bijection, identity_bijection, power_bijection
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

# The check engine and its reports load at the first use of one of their
# names (PEP 562), so a call that samples no plan never imports them: each
# such name -> its module.
_LAZY = {
    "classes": "classes",
    "ClassProbeResult": "classes",
    "conjugate_lk_probe": "classes",
    "r_probe": "classes",
    "sn_probe": "classes",
    "properties": "properties",
    "check_implication_axioms": "properties",
    "check_property": "properties",
    "check_self_dual_phi": "properties",
    "check_tnorm_axioms": "properties",
    "compare_surfaces": "properties",
    "find_associativity_counterexample": "properties",
    "probe_continuity": "properties",
    "reports": "reports",
    "PropertyReport": "reports",
    "SampleSpec": "reports",
}


def __getattr__(name: str):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    loaded = importlib.import_module(f"{__name__}.{module}")
    return loaded if name == module else getattr(loaded, name)


__all__ = sorted(name for name in {*dir(), *_LAZY} if not name.startswith("_"))
