"""Float-first nested-law checks against the all-wide evaluation.

EP, T2 and associativity evaluate each triple in float and re-evaluate
at CHAIN_DPS only when the float discrepancy comes near the tolerance.
The reference below evaluates every triple at CHAIN_DPS, the way the
checks did before.  On the default plan both must give the same verdict
and witness for every implication and connective kind the spec parser
accepts.
"""

import mpmath
import pytest

from genimpl.connectives import generated_tconorm_connective, yager_negation
from genimpl.generators import power_gp, pseudo_inverse
from genimpl.implications import CHAIN_DPS, ig_implication, ign_implication
from genimpl.properties import (
    SPECIAL_TRIPLES,
    check_property,
    check_tnorm_axioms,
    find_associativity_counterexample,
)
from genimpl.reports import SampleSpec, failing, passing
from genimpl.specs import (
    OPERATORS,
    SpecError,
    parse_binary,
    parse_connective,
    parse_implication,
)

DEFAULT = SampleSpec()


def ep_sides(f, x, y, z):
    return f(x, f(y, z)), f(y, f(x, z))


def t2_sides(f, x, y, z):
    return f(f(x, y), z), f(x, f(y, z))


def assoc_sides(f, a, b, c):
    return f(a, f(b, c)), f(f(a, b), c)


def all_wide(prop, sides, fn, triples, s, keys=("x", "y", "z"), holds_as=None):
    """Every triple at CHAIN_DPS, rounded once at the end."""
    worst = 0.0
    for t in triples:
        with mpmath.workdps(CHAIN_DPS):
            left, right = (float(v) for v in sides(fn, *map(mpmath.mpf, t)))
        d = abs(left - right)
        if d > s.tolerance:
            return failing(prop, s, dict(zip(keys, t), left=left, right=right), d)
        worst = max(worst, d)
    return passing(holds_as or prop, s, worst)


def assert_same(fast, wide, s):
    assert (fast.property, fast.verdict, fast.witness) == (
        wide.property, wide.verdict, wide.witness,
    )
    if fast.holds:
        assert fast.max_discrepancy <= s.tolerance
        assert wide.max_discrepancy <= s.tolerance
    else:
        assert fast.max_discrepancy == wide.max_discrepancy


YAGER_F2 = {"kind": "yager_f", "p": 2}
POWER_GP2 = {"kind": "power_gp", "p": 2}
PRODUCT = {"kind": "basic", "name": "product"}
PRODUCT_TABLE = [[i * j / 100 for j in range(11)] for i in range(11)]

IMPLICATIONS = [
    {"kind": "yager_residual", "p": 2},
    {"kind": "yager_residual", "p": 3.7},
    {"kind": "lukasiewicz"},
    {"kind": "mean_residual"},
    {"kind": "piecewise_f"},
    {"kind": "ig", "g": POWER_GP2},
    {"kind": "ig", "g": {"kind": "piecewise_f"}},
    {"kind": "ign", "g": POWER_GP2, "N": {"kind": "yager_np", "p": 2}},
    {"kind": "sn", "S": {"kind": "dual", "of": {"kind": "yager_tnorm", "p": 2}},
     "N": {"kind": "phi", "phi": {"kind": "power", "a": 2}}},
    {"kind": "phi_conjugate", "phi": {"kind": "power", "a": 2}},
]

CONNECTIVES = [
    *({"kind": "basic", "name": n} for n in ("min", "product", "lukasiewicz", "drastic")),
    {"kind": "yager_tnorm", "p": 2},
    {"kind": "mean"},
    {"kind": "dual", "of": PRODUCT},
    {"kind": "generated_tnorm", "f": YAGER_F2},
    {"kind": "generated_tconorm", "g": POWER_GP2},
    {"kind": "generated_tconorm", "g": {"kind": "piecewise_f"}},
    {"kind": "table", "values": PRODUCT_TABLE},
]


def test_specs_cover_every_operator_kind():
    # a new kind added to the registry must also enter the differential
    # tests above; residual has its own test below
    covered = {d["kind"] for d in IMPLICATIONS + CONNECTIVES} | {"residual"}
    assert covered == set(OPERATORS)


def test_unknown_kind_names_the_known_kinds():
    with pytest.raises(SpecError, match="unknown operator kind 'nope'") as e:
        parse_binary({"kind": "nope"})
    assert all(kind in str(e.value) for kind in OPERATORS)


def _id(d):
    return str(d).replace(" ", "")


@pytest.mark.parametrize("spec", IMPLICATIONS, ids=_id)
def test_ep_matches_all_wide(spec):
    i = parse_implication(spec)
    fast = check_property(i, "EP", DEFAULT)
    assert_same(fast, all_wide("EP", ep_sides, i.fn, DEFAULT.triples(), DEFAULT), DEFAULT)
    assert fast.details["escalations"] >= (0 if fast.holds else 1)


@pytest.mark.parametrize("spec", CONNECTIVES, ids=_id)
def test_associativity_matches_all_wide(spec):
    c = parse_connective(spec)
    fast = find_associativity_counterexample(c, DEFAULT)
    wide = all_wide("associativity", assoc_sides, c.fn,
                    SPECIAL_TRIPLES + DEFAULT.triples(), DEFAULT, keys=("a", "b", "c"))
    assert_same(fast, wide, DEFAULT)


def test_t2_matches_all_wide():
    t = parse_connective({"kind": "generated_tnorm", "f": YAGER_F2})
    fast = check_tnorm_axioms(t, DEFAULT)
    wide = all_wide("T2", t2_sides, t.fn, DEFAULT.triples(), DEFAULT, holds_as="T1-T4")
    assert_same(fast, wide, DEFAULT)
    assert "escalations" in fast.details


# --------------------------------------------------------------------------
# Where the all-wide path is wrong: false "fails" whose witness does not
# reproduce against a 50-digit closed form
# --------------------------------------------------------------------------


def yager_residual_50(p, x, y):
    if x <= y:
        return mpmath.mpf(1)
    return 1 - ((1 - y) ** p - (1 - x) ** p) ** (1 / mpmath.mpf(p))


def test_residual_of_yager_ep_all_wide_false_fail():
    # the bisection residual rounds every point value to a double, so the
    # all-wide chain mixes a double into its outer step (bisection in
    # double precision is still open); float-first compares like with like
    i = parse_implication({"kind": "residual", "of": {"kind": "yager_tnorm", "p": 2}})
    wide = all_wide("EP", ep_sides, i.fn, DEFAULT.triples(), DEFAULT)
    assert not wide.holds
    w = wide.witness
    assert (w["x"], w["y"], w["z"]) == (0.2, 0.4, 0.0)
    with mpmath.workdps(50):
        x, y, z = (mpmath.mpf(w[k]) for k in "xyz")
        r = lambda a, b: yager_residual_50(2, a, b)  # noqa: E731
        gap = abs(r(x, r(y, z)) - r(y, r(x, z)))
    assert gap < 1e-40

    fast = check_property(i, "EP", DEFAULT)
    assert fast.holds, fast.witness


def power_tconorm_50(p, x, y):
    """Generated t-conorm of g(x) = 1-(1-x)^p: 1-((1-x)^p+(1-y)^p-1)^(1/p)."""
    s = (1 - x) ** p + (1 - y) ** p - 1
    return mpmath.mpf(1) if s <= 0 else 1 - s ** (1 / mpmath.mpf(p))


@pytest.mark.parametrize("seed", [1, 42])
def test_generated_power_tconorm_is_associative(seed):
    c = generated_tconorm_connective(power_gp(2.0))
    report = find_associativity_counterexample(c, SampleSpec(seed=seed))
    assert report.holds, report.witness
    # the false witness reported while the pseudo-inverse rounded the
    # wide chain to a double after its inner step
    with mpmath.workdps(50):
        a, b, cc = (mpmath.mpf(v) for v in (0.0, 0.2, 0.4))
        s = lambda u, v: power_tconorm_50(2, u, v)  # noqa: E731
        assert abs(s(a, s(b, cc)) - s(s(a, b), cc)) < 1e-40


def test_pseudo_inverse_keeps_precision_of_argument():
    g = power_gp(2.0)
    with mpmath.workdps(CHAIN_DPS):
        y = mpmath.mpf(1) - mpmath.mpf(10) ** -30
        v = pseudo_inverse(g, y)
        assert isinstance(v, mpmath.mpf)
        assert abs(v - (1 - mpmath.sqrt(1 - y))) < mpmath.mpf(10) ** -35
    assert isinstance(pseudo_inverse(g, 0.5), float)
    assert isinstance(pseudo_inverse(g, 0), float)
    # a generated implication still answers a float at a float point
    assert isinstance(ig_implication(g, 0.3, 0.6), float)
    assert isinstance(ign_implication(g, yager_negation(2.0), 0.3, 0.6), float)

