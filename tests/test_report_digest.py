"""Verdicts and witnesses pinned in report_digest.json.

A change that makes a check cheaper must leave each report's property,
verdict and witness as they were.  The digest holds, at seeds 1, 5 and
42 on the nested-laws triple plan: T1-T4 on the nested-laws connectives,
on the Yager t-norm at p = 1000 (both powers underflow), on a table
generator's t-norm, on the t-norm of yager_f at p = 0.5 and on a table
that fails T1; EP on five generated implications, on the Yager residual
at p = 0.5, 2 and 3.7 and on a phi-conjugate; associativity of four
generated t-conorms, of the quadratic mean and of its dual (the
piecewise t-conorm and the last two fail); I1-I3 on three phi-conjugates of the Lukasiewicz
implication, on the Yager residual at p = 2 and at p = 1000 (its scaled
branch) and on an I^g_N whose negation rises, so I1 fails; OP on
the residual of the Yager t-norm at p = 2; NP, OP and CP (against N_p,
where it holds, and the standard negation, where it fails) on the Yager
residual at p = 0.5, 2 and 3.7, and CP of a phi-conjugate against N_phi;
T4 on two parted t-norms and T1-T4 on the quadratic mean (T4 fails);
and the comparison of the generated Yager t-norm with the closed form
at p = 0.5, 2 and 3.7 and at two different p, of the Yager t-norm
with the product, and of the dual of the product with the t-conorm of
neg_log, its argmax too.  ``max_discrepancy`` is
pinned too, so a value that moves by an ulp shows in a passing report;
not for EP on ``ig``, where a passing report bounds it from a float
enclosure, and a tighter enclosure moves it.

Regenerate only when a verdict or witness is meant to change:

    PYTHONPATH=src python tests/test_report_digest.py
"""

import json
import pathlib

import pytest

from genimpl.properties import (
    _check_t4,
    check_implication_axioms,
    check_property,
    check_tnorm_axioms,
    compare_surfaces,
    find_associativity_counterexample,
)
from genimpl.reports import SampleSpec
from genimpl.specs import parse_connective, parse_implication, parse_negation

DIGEST = pathlib.Path(__file__).with_name("report_digest.json")
SEEDS = (1, 5, 42)

TNORMS = {
    "yager_tnorm 0.5": {"kind": "yager_tnorm", "p": 0.5},
    "yager_tnorm 2": {"kind": "yager_tnorm", "p": 2},
    "generated_tnorm(yager_f 2)": {"kind": "generated_tnorm", "f": {"kind": "yager_f", "p": 2}},
    # x * y^2 on an 11 x 11 table: T4 holds, T1 fails on a grid pair
    "table(x y^2)": {"kind": "table",
                     "values": [[i * j * j / 1000 for j in range(11)] for i in range(11)]},
    "yager_tnorm 1000": {"kind": "yager_tnorm", "p": 1000},
    "generated_tnorm(table)": {"kind": "generated_tnorm",
                               "f": {"kind": "table", "direction": "decreasing",
                                     "points": [[0, 1], [0.5, 0.3], [1, 0]]}},
    "generated_tnorm(yager_f 0.5)": {"kind": "generated_tnorm",
                                     "f": {"kind": "yager_f", "p": 0.5}},
}
IG_GENERATORS = {
    "power_gp 2": {"kind": "power_gp", "p": 2},
    "power_gp 7": {"kind": "power_gp", "p": 7},
    "neg_log": {"kind": "neg_log"},
    "piecewise_f": {"kind": "piecewise_f"},
    "table": {"kind": "table", "direction": "increasing",
              "points": [[0, 0], [0.5, 0.3], [1, 1]]},
}


IMPLICATIONS = {
    **{f"phi_conjugate(power {a})": {"kind": "phi_conjugate", "phi": {"kind": "power", "a": a}}
       for a in (0.5, 2, 3)},
    **{f"yager_residual {p}": {"kind": "yager_residual", "p": p} for p in (2, 1000)},
    # the table negation rises between 0.4 and 0.6: I1 fails
    "ign(neg_log, rising table)": {
        "kind": "ign", "g": {"kind": "neg_log"},
        "N": {"kind": "table", "points": [[0, 1], [0.4, 0.2], [0.6, 0.6], [1, 0]]}},
}
EP_OF = {
    **{f"yager_residual {p}": {"kind": "yager_residual", "p": p} for p in (0.5, 2, 3.7)},
    "phi_conjugate(power 2)": {"kind": "phi_conjugate", "phi": {"kind": "power", "a": 2}},
}
ASSOCIATIVITY_OF = {
    **{f"generated_tconorm({name})": {"kind": "generated_tconorm", "g": {"kind": name}}
       for name in ("neg_log", "piecewise_f")},
    "generated_tconorm(power_gp 2)": {"kind": "generated_tconorm",
                                      "g": {"kind": "power_gp", "p": 2}},
    "generated_tconorm(table)": {"kind": "generated_tconorm", "g": IG_GENERATORS["table"]},
    "mean": {"kind": "mean"},
    "dual(mean)": {"kind": "dual", "of": {"kind": "mean"}},
}
OP_OF = {"residual(yager_tnorm 2)": {"kind": "residual", "of": {"kind": "yager_tnorm", "p": 2}}}
# the pair and point laws on operators with parts, each with the negations
# CP is checked against: the natural one (CP holds) and the standard one
PAIR_LAWS_OF = {
    **{f"yager_residual {p}": ({"kind": "yager_residual", "p": p},
                               {f"N_p {p}": {"kind": "yager_np", "p": p},
                                "standard": {"kind": "standard"}})
       for p in (0.5, 2, 3.7)},
    "phi_conjugate(power 2)": ({"kind": "phi_conjugate", "phi": {"kind": "power", "a": 2}},
                               {"N_phi": {"kind": "phi", "phi": {"kind": "power", "a": 2}}}),
}
T4_OF = {name: TNORMS[name] for name in ("generated_tnorm(yager_f 2)", "yager_tnorm 2")}
# the quadratic mean fails T4 first
TNORM_AXIOMS_OF = {"mean": {"kind": "mean"}}
COMPARED = {f"generated_tnorm(yager_f {p}) yager_tnorm {p}": (
    {"kind": "generated_tnorm", "f": {"kind": "yager_f", "p": p}}, {"kind": "yager_tnorm", "p": p})
    for p in (0.5, 2, 3.7)}
# two that differ: one fails, at its argmax
COMPARED["generated_tnorm(yager_f 2) yager_tnorm 3.7"] = (
    COMPARED["generated_tnorm(yager_f 2) yager_tnorm 2"][0], {"kind": "yager_tnorm", "p": 3.7})
COMPARED["yager_tnorm 2 basic product"] = (
    {"kind": "yager_tnorm", "p": 2}, {"kind": "basic", "name": "product"})
# the dual of the product is the t-conorm generated by -log(1 - x)
COMPARED["dual(basic product) generated_tconorm(neg_log)"] = (
    {"kind": "dual", "of": {"kind": "basic", "name": "product"}},
    {"kind": "generated_tconorm", "g": {"kind": "neg_log"}})


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
        for name, spec in EP_OF.items():
            yield (f"EP {name} seed={seed}",
                   lambda spec=spec, s=s: check_property(parse_implication(spec), "EP", s))
        for name, spec in ASSOCIATIVITY_OF.items():
            yield (f"associativity {name} seed={seed}",
                   lambda spec=spec, s=s: find_associativity_counterexample(
                       parse_connective(spec), s))
        for name, spec in IMPLICATIONS.items():
            yield (f"I1-I3 {name} seed={seed}",
                   lambda spec=spec, s=s: check_implication_axioms(parse_implication(spec), s))
        for name, spec in OP_OF.items():
            yield (f"OP {name} seed={seed}",
                   lambda spec=spec, s=s: check_property(parse_implication(spec), "OP", s))
        for name, (spec, negations) in PAIR_LAWS_OF.items():
            if not name.startswith("phi_conjugate"):
                for law in ("NP", "OP"):
                    yield (f"{law} {name} seed={seed}",
                           lambda spec=spec, s=s, law=law: check_property(
                               parse_implication(spec), law, s))
            for n_name, n in negations.items():
                yield (f"CP {name} wrt {n_name} seed={seed}",
                       lambda spec=spec, n=n, s=s: check_property(
                           parse_implication(spec), "CP", s, parse_negation(n)))
        for name, spec in T4_OF.items():
            yield (f"T4 {name} seed={seed}",
                   lambda spec=spec, s=s: _check_t4(parse_connective(spec), s))
        for name, spec in TNORM_AXIOMS_OF.items():
            yield (f"T1-T4 {name} seed={seed}",
                   lambda spec=spec, s=s: check_tnorm_axioms(parse_connective(spec), s))
        for name, (f, g) in COMPARED.items():
            yield (f"compare {name} seed={seed}",
                   lambda f=f, g=g, s=s: compare_surfaces(
                       parse_connective(f), parse_connective(g), s))


def digest(key, report) -> dict:
    d = {"property": report.property, "verdict": report.verdict,
         "witness": report.witness}
    if not key.startswith("EP ig("):
        d["max_discrepancy"] = report.max_discrepancy
    if key.startswith("compare "):
        d["argmax"] = report.details["argmax"]
    return d


def test_reports_match_the_digest():
    want = json.loads(DIGEST.read_text())
    got = {key: digest(key, check()) for key, check in cases()}
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key


@pytest.mark.parametrize("prop", ["T1", "EP", "I1"])
def test_digest_has_a_failing_report(prop):
    # the pins cover a witness, not only passing verdicts
    want = json.loads(DIGEST.read_text())
    assert any(d["property"] == prop and d["witness"] for d in want.values())


if __name__ == "__main__":
    DIGEST.write_text(json.dumps({key: digest(key, check()) for key, check in cases()},
                                 indent=1) + "\n")
