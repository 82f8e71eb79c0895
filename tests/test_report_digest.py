"""Verdicts and witnesses pinned in report_digest.json.

A change that makes a check cheaper must leave each report's property,
verdict and witness as they were.  The digest holds T1-T4 on the
nested-laws connectives (and a table that fails T1) and EP on five
generated implications, at seeds 1, 5 and 42, on the nested-laws
triple plan.  ``max_discrepancy`` is not pinned: a passing EP report on
``ig`` bounds it from a float enclosure, and a tighter enclosure moves it.

Regenerate only when a verdict or witness is meant to change:

    PYTHONPATH=src python tests/test_report_digest.py
"""

import json
import pathlib

import pytest

from genimpl.properties import check_property, check_tnorm_axioms
from genimpl.reports import SampleSpec
from genimpl.specs import parse_connective, parse_implication

DIGEST = pathlib.Path(__file__).with_name("report_digest.json")
SEEDS = (1, 5, 42)

TNORMS = {
    "yager_tnorm 0.5": {"kind": "yager_tnorm", "p": 0.5},
    "yager_tnorm 2": {"kind": "yager_tnorm", "p": 2},
    "generated_tnorm(yager_f 2)": {"kind": "generated_tnorm", "f": {"kind": "yager_f", "p": 2}},
    # x * y^2 on an 11 x 11 table: T4 holds, T1 fails on a grid pair
    "table(x y^2)": {"kind": "table",
                     "values": [[i * j * j / 1000 for j in range(11)] for i in range(11)]},
}
IG_GENERATORS = {
    "power_gp 2": {"kind": "power_gp", "p": 2},
    "power_gp 7": {"kind": "power_gp", "p": 7},
    "neg_log": {"kind": "neg_log"},
    "piecewise_f": {"kind": "piecewise_f"},
    "table": {"kind": "table", "direction": "increasing",
              "points": [[0, 0], [0.5, 0.3], [1, 1]]},
}


def cases():
    """(key, check) for every pinned report."""
    for seed in SEEDS:
        s = SampleSpec(seed=seed, triple_grid_n=11, triple_random_count=500)
        for name, spec in TNORMS.items():
            yield (f"T1-T4 {name} seed={seed}",
                   lambda spec=spec, s=s: check_tnorm_axioms(parse_connective(spec), s))
        for name, g in IG_GENERATORS.items():
            yield (f"EP ig({name}) seed={seed}",
                   lambda g=g, s=s: check_property(parse_implication({"kind": "ig", "g": g}),
                                                   "EP", s))


def digest(report) -> dict:
    return {"property": report.property, "verdict": report.verdict,
            "witness": report.witness}


def test_reports_match_the_digest():
    want = json.loads(DIGEST.read_text())
    got = {key: digest(check()) for key, check in cases()}
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key


@pytest.mark.parametrize("prop", ["T1", "EP"])
def test_digest_has_a_failing_report(prop):
    # the pins cover a witness, not only passing verdicts
    want = json.loads(DIGEST.read_text())
    assert any(d["property"] == prop and d["witness"] for d in want.values())


if __name__ == "__main__":
    DIGEST.write_text(json.dumps({key: digest(check()) for key, check in cases()},
                                 indent=1) + "\n")
