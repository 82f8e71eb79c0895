"""Float-first nested-law checks against the all-wide evaluation.

EP, T2 and associativity evaluate each triple in float and re-evaluate
at CHAIN_DPS only when the float discrepancy comes near the tolerance.
The reference below evaluates every triple at CHAIN_DPS, the way the
checks did before.  On the default plan both must give the same verdict
and witness for every implication and connective kind the spec parser
accepts.  A second reference runs the float-first loop with all four
evaluations on every triple, as the checks did before the grid triples
read their inner values from a table: its reports must be the checks'
own, byte for byte.
"""

import functools

import mpmath
import pytest

from genimpl.connectives import (
    BinaryConnective,
    generated_tconorm_connective,
    yager_connective,
    yager_negation,
)
from genimpl.generators import power_gp, pseudo_inverse
from genimpl.implications import (
    CHAIN_DPS,
    ImplicationCandidate,
    chain_eval,
    ig_candidate,
    ign_candidate,
    residual_numeric,
)
from genimpl.properties import (
    ESCALATE_SHARE,
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
TABLE_G = {"kind": "table", "direction": "increasing", "points": [[0, 0], [0.5, 0.3], [1, 1]]}
TABLE_F = {"kind": "table", "direction": "decreasing", "points": [[0, 1], [0.5, 0.3], [1, 0]]}

IMPLICATIONS = [
    {"kind": "yager_residual", "p": 2},
    {"kind": "yager_residual", "p": 3.7},
    {"kind": "lukasiewicz"},
    {"kind": "mean_residual"},
    {"kind": "piecewise_f"},
    {"kind": "ig", "g": POWER_GP2},
    {"kind": "ig", "g": {"kind": "neg_log"}},
    {"kind": "ig", "g": {"kind": "piecewise_f"}},
    {"kind": "ig", "g": TABLE_G},
    {"kind": "ign", "g": POWER_GP2, "N": {"kind": "yager_np", "p": 2}},
    {"kind": "sn", "S": {"kind": "dual", "of": {"kind": "yager_tnorm", "p": 2}},
     "N": {"kind": "phi", "phi": {"kind": "power", "a": 2}}},
    {"kind": "phi_conjugate", "phi": {"kind": "power", "a": 2}},
    # residuals of generated t-norms, in closed form at any precision
    {"kind": "residual", "of": {"kind": "yager_tnorm", "p": 2}},
    {"kind": "residual", "of": {"kind": "generated_tnorm", "f": YAGER_F2}},
    {"kind": "residual", "of": {"kind": "generated_tnorm", "f": TABLE_F}},
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
    # tests above
    covered = {d["kind"] for d in IMPLICATIONS + CONNECTIVES}
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


# Residuals by bisection, whose all-wide triples bisect at CHAIN_DPS: an
# all-wide pass over the default plan takes minutes, so a 5^3 + 40 triple
# plan stands in for it.  The mean's residual fails EP on an escalated triple.
BISECTION_PLAN = SampleSpec(triple_grid_n=5, triple_random_count=40)


@pytest.mark.parametrize("of, holds", [
    ({"kind": "table", "values": PRODUCT_TABLE}, True),
    ({"kind": "mean"}, False),
], ids=_id)
def test_ep_of_a_bisected_residual_matches_all_wide(of, holds):
    i = parse_implication({"kind": "residual", "of": of})
    assert i.fn.func is residual_numeric
    fast = check_property(i, "EP", BISECTION_PLAN)
    wide = all_wide("EP", ep_sides, i.fn, BISECTION_PLAN.triples(), BISECTION_PLAN)
    assert_same(fast, wide, BISECTION_PLAN)
    assert fast.holds is holds
    assert fast.details["escalations"] >= (0 if holds else 1)


@pytest.mark.parametrize("g, most_escalations", [
    ({"kind": "neg_log"}, 0),
    # p = 2 escalates 6 triples, each through a point where g(1 - x) + g(y)
    # is exactly g(1), as (0.6, 0.2) inside (0.6, 0.8, 0); p = 7 escalates
    # 10, and 17 without the enclosure's cap at x = 1, where I^g(1, y) = y
    (POWER_GP2, 12),
    ({"kind": "power_gp", "p": 7}, 12),
], ids=_id)
def test_ep_on_ig_is_screened_by_its_enclosure(g, most_escalations):
    # the 40-digit chain runs four times per escalated triple and nowhere
    # else, so a regression to "every triple wide", or to an enclosure
    # loose where g^(-1) saturates, fails here, not only in the benchmark
    assert len(DEFAULT.triples()) == 11261
    i = parse_implication({"kind": "ig", "g": g})
    calls = []
    counted = i.replace(fn=lambda x, y: calls.append(1) or i.fn(x, y))
    report = check_property(counted, "EP", DEFAULT)
    assert report.holds
    assert report.details["escalations"] <= most_escalations
    assert len(calls) == 4 * report.details["escalations"]


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
# Against the float-first loop with four evaluations per triple
# --------------------------------------------------------------------------


def four_evaluations(prop, sides, fn, triples, s, keys=("x", "y", "z"), holds_as=None,
                     bounds=None):
    """The float-first loop with every side evaluated in full on every
    triple, the enclosure's too; an escalated triple at CHAIN_DPS."""
    worst = 0.0
    escalations = 0
    enclose = lambda u, v: bounds(u, *v)  # noqa: E731
    for a, b, c in triples:
        if bounds is None:
            left, right = sides(fn, a, b, c)
            d = abs(left - right)
        else:
            (l_lo, l_hi), (r_lo, r_hi) = sides(enclose, a, b, (c, c))
            d = max(l_hi - r_lo, r_hi - l_lo)
        if not d <= ESCALATE_SHARE * s.tolerance:
            escalations += 1
            left, right = map(float, chain_eval(functools.partial(sides, fn), a, b, c))
            d = abs(left - right)
            if d > s.tolerance:
                report = failing(prop, s, dict(zip(keys, (a, b, c)), left=left, right=right), d)
                break
        worst = max(worst, d)
    else:
        report = passing(holds_as or prop, s, worst)
    report.details = {"escalations": escalations}
    return report


def off_grid_max(grid):
    """max(x, y) where x and y are grid points or coordinates of the special
    triple, half of it elsewhere: the grid and special triples are
    associative, the random ones are not."""
    on_grid = {*grid, *SPECIAL_TRIPLES[0]}
    return lambda x, y: max(x, y) if x in on_grid and y in on_grid else 0.5 * max(x, y)


def first_raising_at_one_one(x, y):
    """The first projection, which breaks EP at (0, 0.1, 0), an early grid
    triple; it raises at (1, 1), which only later triples reach."""
    if x == y == 1.0:
        raise ArithmeticError("(1, 1) evaluated")
    return x


def _identity(t):
    return t


# first_raising_at_one_one with parts u = v = identity: its cell raises at
# the inner pair (1, 1)
PARTED_FIRST = BinaryConnective(first_raising_at_one_one, "parted_first_raising_at_one_one",
                                parts=(_identity, _identity,
                                       lambda a, b, x, y: first_raising_at_one_one(x, y)))


def mean_of_min_and_product(x, y):
    """Commutative, monotone, with neutral element 1, and not associative."""
    return 0.5 * (min(x, y) + x * y)


NESTED_PLAN = SampleSpec(triple_grid_n=11, triple_random_count=500)
# ign evaluates every value at CHAIN_DPS: a 5^3 + 40 triple plan
IGN_PLAN = {"triple_grid_n": 5, "triple_random_count": 40}
TABLE_CASES = [
    ("EP", {"kind": "yager_residual", "p": 2}),
    ("EP", {"kind": "yager_residual", "p": 0.5}),
    ("EP", {"kind": "phi_conjugate", "phi": {"kind": "power", "a": 2}}),
    ("EP", {"kind": "ig", "g": POWER_GP2}),
    ("EP", {"kind": "ig", "g": {"kind": "power_gp", "p": 7}}),
    ("EP", {"kind": "ign", "g": POWER_GP2, "N": {"kind": "yager_np", "p": 2}}, IGN_PLAN),
    ("EP", {"kind": "piecewise_f"}),  # fails at a grid triple
    ("EP", first_raising_at_one_one),
    ("EP", PARTED_FIRST),
    ("T2", {"kind": "yager_tnorm", "p": 2}),
    ("T2", {"kind": "generated_tnorm", "f": YAGER_F2}),
    ("T2", mean_of_min_and_product),  # fails at a grid triple
    *(("associativity", {"kind": "generated_tconorm", "g": g})
      for g in ({"kind": "neg_log"}, POWER_GP2, TABLE_G)),
    ("associativity", {"kind": "mean"}),  # fails at the special triple
    ("associativity", off_grid_max),  # fails at the first random triple
]


def _case_id(law, op, plan=None):
    name = getattr(op, "label", None) or getattr(op, "__name__", None)
    return f"{law}-{name or _id(op)}"


def table_case(law, op, s):
    """(the check's report, the four-evaluation loop's) for law on op."""
    if isinstance(op, dict):
        op = parse_implication(op) if law == "EP" else parse_connective(op)
    elif not isinstance(op, BinaryConnective):
        fn = off_grid_max(SampleSpec(grid_n=s.triple_grid_n).grid()) if op is off_grid_max else op
        op = BinaryConnective(fn, op.__name__)
    if law == "EP":
        return (check_property(op, "EP", s),
                four_evaluations("EP", ep_sides, op.fn, s.triples(), s, bounds=op.bounds))
    if law == "T2":
        return (check_tnorm_axioms(op, s),
                four_evaluations("T2", t2_sides, op.fn, s.triples(), s, holds_as="T1-T4"))
    return (find_associativity_counterexample(op, s),
            four_evaluations("associativity", assoc_sides, op.fn, SPECIAL_TRIPLES + s.triples(),
                             s, keys=("a", "b", "c")))


@pytest.mark.parametrize("seed", [1, 5, 42])
@pytest.mark.parametrize("case", TABLE_CASES, ids=[_case_id(*case) for case in TABLE_CASES])
def test_grid_table_matches_four_evaluations(case, seed):
    law, op, *plan = case
    s = SampleSpec(**{**NESTED_PLAN.as_dict(), **dict(*plan), "seed": seed})
    fast, reference = table_case(law, op, s)
    assert fast.to_json() == reference.to_json()


FAILING_CASES = [
    ("associativity", {"kind": "mean"}, SPECIAL_TRIPLES[0]),
    ("EP", {"kind": "piecewise_f"}, (0.5, 0.6, 0.1)),
    ("EP", first_raising_at_one_one, (0.0, 0.1, 0.0)),
    ("EP", PARTED_FIRST, (0.0, 0.1, 0.0)),
    ("T2", mean_of_min_and_product, None),
    ("associativity", off_grid_max, None),
]


@pytest.mark.parametrize("law, op, triple", FAILING_CASES,
                         ids=[_case_id(law, op) for law, op, _ in FAILING_CASES])
def test_table_cases_fail_where_they_should(law, op, triple):
    # the failing cases above fail at a special, a grid and a random triple
    report, _ = table_case(law, op, NESTED_PLAN)
    assert report.property == law and not report.holds
    grid = SampleSpec(grid_n=NESTED_PLAN.triple_grid_n).grid()
    witness = tuple(report.witness[k] for k in ("x", "y", "z", "a", "b", "c")
                    if k in report.witness)
    if triple is not None:
        assert witness == triple
    elif op is off_grid_max:
        assert witness == NESTED_PLAN.triples()[len(grid) ** 3]
    else:
        assert set(witness) <= set(grid)


# --------------------------------------------------------------------------
# Against a 50-digit closed form
# --------------------------------------------------------------------------


def yager_residual_50(p, x, y):
    if x <= y:
        return mpmath.mpf(1)
    return 1 - ((1 - y) ** p - (1 - x) ** p) ** (1 / mpmath.mpf(p))


# (0.2, 0.4, 0) was a false all-wide "fails" while the bisection ran in
# double whatever its arguments; an all-wide pass over the whole plan
# takes minutes, so a few triples stand in for it
BISECTED_EP_TRIPLES = [(0.2, 0.4, 0.0), (0.5, 0.3, 0.1), (0.9, 0.7, 0.2),
                       (0.748, 0.073, 0.01), (0.35, 0.9, 0.3), (1.0, 0.6, 0.25)]


def test_residual_of_yager_ep_agrees_with_all_wide():
    # the bisection runs at the precision of its arguments, so each side
    # of the all-wide chain is the 50-digit value to the chain's precision
    t = yager_connective(2.0)
    i = ImplicationCandidate(lambda x, y: residual_numeric(t, x, y), f"R[{t.label}]")
    wide = all_wide("EP", ep_sides, i.fn, BISECTED_EP_TRIPLES, DEFAULT)
    assert wide.holds, wide.witness
    assert wide.max_discrepancy == 0.0
    for triple in BISECTED_EP_TRIPLES:
        with mpmath.workdps(CHAIN_DPS):
            sides = ep_sides(i.fn, *map(mpmath.mpf, triple))
        with mpmath.workdps(50):
            r = lambda a, b: yager_residual_50(2, a, b)  # noqa: E731
            exact = ep_sides(r, *map(mpmath.mpf, triple))
            assert all(abs(a - b) < 1e-30 for a, b in zip(sides, exact)), triple

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
    assert isinstance(ig_candidate(g).fn(0.3, 0.6), float)
    assert isinstance(ign_candidate(g, yager_negation(2.0)).fn(0.3, 0.6), float)

