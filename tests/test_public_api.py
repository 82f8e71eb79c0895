"""The package's public names, pinned: a change to ``genimpl.__all__``
fails here, and is then recorded with its reason in CHANGES.md.  So are
the fields of the four read-only operator records, among them the
operator type every connective and implication shares."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


FIELDS = {
    genimpl.Bijection: ("forward", "inverse", "label"),
    genimpl.Generator: ("direction", "fn", "inverse", "label"),
    genimpl.BinaryConnective: ("fn", "label", "residual", "bounds", "parts"),
    genimpl.Negation: ("fn", "label"),
}
RECORDS = {
    genimpl.Bijection: genimpl.power_bijection(2),
    genimpl.Generator: genimpl.yager_f(2),
    genimpl.BinaryConnective: genimpl.yager_connective(2),
    genimpl.Negation: genimpl.yager_negation(2),
}
IDS = [cls.__name__ for cls in FIELDS]


@pytest.mark.parametrize("cls", FIELDS, ids=IDS)
def test_operator_fields_are_pinned(cls):
    assert cls.__slots__ == FIELDS[cls]
    assert not hasattr(RECORDS[cls], "__dict__")


@pytest.mark.parametrize("cls", FIELDS, ids=IDS)
def test_operator_records_are_read_only(cls):
    op = RECORDS[cls]
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(op, name, None)
        with pytest.raises(AttributeError):
            delattr(op, name)
    with pytest.raises(AttributeError):
        op.other = None


@pytest.mark.parametrize("cls", FIELDS, ids=IDS)
def test_replace_changes_one_field_and_keeps_the_rest(cls):
    op = RECORDS[cls]
    copy = op.replace(label="other")
    assert type(copy) is cls and copy is not op and op.label != "other"
    assert [getattr(copy, name) for name in FIELDS[cls]] == [
        "other" if name == "label" else getattr(op, name) for name in FIELDS[cls]]


def test_replace_refuses_an_unknown_field():
    op = RECORDS[genimpl.BinaryConnective]
    with pytest.raises(TypeError, match="'nope'"):
        op.replace(parts=None, nope=1)


def test_a_generator_of_a_bad_direction_is_refused():
    g = RECORDS[genimpl.Generator]
    with pytest.raises(ValueError, match="bad direction 'up'"):
        genimpl.Generator("up", g.fn, g.inverse, "up")
    with pytest.raises(ValueError, match="bad direction"):
        g.replace(direction="sideways")


# In a fresh interpreter, where no check module is loaded yet: star-import
# genimpl, then report the names of __all__ left unbound, two identities of
# a lazy name and the error an unknown name raises.
_LAZY_NAMES = """
import json
import genimpl
from genimpl import *
report = {"unbound": [name for name in genimpl.__all__ if name not in globals()]}
report["identical"] = [genimpl.check_property is genimpl.properties.check_property,
                       genimpl.r_probe is genimpl.classes.r_probe]
try:
    report["nope"] = repr(getattr(genimpl, "nope"))
except AttributeError as e:
    report["nope"] = f"AttributeError: {e}"
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def lazy_names():
    src = str(Path(genimpl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _LAZY_NAMES], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    return json.loads(out)


def test_star_import_binds_every_name(lazy_names):
    assert lazy_names["unbound"] == []


def test_a_lazy_name_is_its_modules_own(lazy_names):
    assert lazy_names["identical"] == [True, True]


def test_an_unknown_name_raises_attribute_error(lazy_names):
    assert lazy_names["nope"] == "AttributeError: module 'genimpl' has no attribute 'nope'"
