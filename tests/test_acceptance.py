"""End-to-end acceptance gate.

Each test prints exactly one line, ``[criterion N] PASS|FAIL - summary``,
and then asserts.  Run with ``pytest tests/test_acceptance.py -v -s`` to
see the lines as they happen.  All checks run at full sampling scale:
101 x 101 grid plus 1000 seeded random pairs, and 21^3 plus 2000 random
triples for the nested laws.
"""

import math

from genimpl.bijections import identity_bijection, power_bijection
from genimpl.classes import (
    CONSISTENT,
    EXCLUDED,
    r_probe,
    sn_probe,
)
from genimpl.connectives import (
    BinaryConnective,
    archimedean_witness,
    basic,
    generated_tnorm_connective,
    mean_connective,
    t_drastic,
    t_minimum,
    yager_connective,
    yager_negation,
    yager_residual_candidate,
)
from genimpl.generators import neg_log, power_gp, yager_f
from genimpl.implications import (
    ImplicationCandidate,
    build_intersection_member,
    ig_candidate,
    ign_candidate,
    mean_residual_candidate,
    natural_negation,
    phi_conjugate_candidate,
    piecewise_f_candidate,
    piecewise_f_implication,
    residual_candidate,
    residual_numeric,
)
from genimpl.properties import (
    check_implication_axioms,
    check_property,
    compare_surfaces,
    find_associativity_counterexample,
)
from genimpl.reports import SampleSpec

FULL = SampleSpec()


def report(n: int, ok: bool, summary: str) -> None:
    print(f"\n[criterion {n:2d}] {'PASS' if ok else 'FAIL'} - {summary}")
    assert ok, f"criterion {n}: {summary}"


def test_criterion_01_associativity_counterexample():
    s = BinaryConnective(
        lambda x, y: piecewise_f_implication(1.0 - x, y), "S_f"
    )
    inner_first = s(0.3, s(0.35, 0.2))
    outer_first = s(s(0.3, 0.35), 0.2)
    found = find_associativity_counterexample(s, FULL)
    ok = (
        abs(inner_first - 0.6) <= 1e-12
        and abs(outer_first - 0.5) <= 1e-12
        and not found.holds
        and abs(found.witness["left"] - found.witness["right"]) >= 0.1 - 1e-12
    )
    report(
        1, ok,
        f"disjunction from plateau implication: "
        f"S(0.3,S(0.35,0.2))={inner_first:g} vs "
        f"S(S(0.3,0.35),0.2)={outer_first:g}",
    )


def test_criterion_02_generated_equals_residual_identity():
    worst = 0.0
    for p in (0.5, 1.0, 2.0, 3.0):
        r = compare_surfaces(
            ign_candidate(power_gp(p), yager_negation(p)),
            yager_residual_candidate(p),
            FULL,
        )
        worst = max(worst, r.max_discrepancy)
    ok = worst <= 1e-9
    report(
        2, ok,
        f"IgN(power generator, matched negation) = residual closed form, "
        f"max discrepancy {worst:.3g} for p in {{0.5,1,2,3}}",
    )


def test_criterion_03_numeric_residual_matches_closed_form():
    spec = SampleSpec(tolerance=1e-6)
    worst = 0.0
    for p in (1.0, 2.0, 3.0):
        # residual_numeric itself: residual_candidate of a Yager t-norm
        # takes the closed form
        t = yager_connective(p)
        r = compare_surfaces(
            ImplicationCandidate(lambda x, y: residual_numeric(t, x, y), "R_bisect"),
            yager_residual_candidate(p),
            spec,
        )
        worst = max(worst, r.max_discrepancy)
    ok = worst <= 1e-6
    report(
        3, ok,
        f"bisection residual vs closed form, max discrepancy {worst:.3g} "
        f"for p in {{1,2,3}}",
    )


def test_criterion_04_log_generator_gives_reichenbach():
    ref = ImplicationCandidate(lambda x, y: 1.0 - x + x * y, "1-x+xy")
    r = compare_surfaces(ig_candidate(neg_log()), ref, FULL)
    ok = r.max_discrepancy <= 1e-9
    report(
        4, ok,
        f"Ig with -ln(1-x) equals 1-x+xy, max discrepancy "
        f"{r.max_discrepancy:.3g}",
    )


def test_criterion_05_property_suite_for_residual_p2():
    i2 = yager_residual_candidate(2.0)
    checks = [check_implication_axioms(i2, FULL)]
    for prop in ("NP", "EP", "IP", "OP"):
        checks.append(check_property(i2, prop, FULL))
    checks.append(check_property(i2, "CP", FULL, negation=yager_negation(2.0)))
    bad = [c for c in checks if not c.holds]
    ok = not bad
    report(
        5, ok,
        "residual p=2 passes I1-I3, NP, EP, IP, OP, CP(matched negation) "
        "with zero witnesses"
        + ("" if ok else f"; first failure {bad[0].property}: {bad[0].witness}"),
    )


def test_criterion_06_mean_residual_boundary_violation():
    r = check_implication_axioms(mean_residual_candidate(), FULL)
    v = residual_numeric(mean_connective(), 0.0, 0.0)
    ok = (
        not r.holds
        and r.property == "I3"
        and r.witness["x"] == 0.0
        and r.witness["y"] == 0.0
        and abs(r.witness["value"]) <= 1e-9
        and abs(v) <= 1e-9
    )
    report(
        6, ok,
        f"quadratic-mean residual fails boundary axiom at (0,0) with "
        f"value {v:g}",
    )


def test_criterion_07_conjugates_match_and_probe_clean():
    ilk = residual_candidate(basic("lukasiewicz"))
    phis = [identity_bijection(), power_bijection(2.0), power_bijection(0.5)]
    worst = 0.0
    probes_ok = True
    for phi in phis:
        conj = phi_conjugate_candidate(ilk, phi)
        member = build_intersection_member(phi)
        worst = max(worst, compare_surfaces(conj, member, FULL).max_discrepancy)
        probes_ok = probes_ok and r_probe(conj, FULL).overall == CONSISTENT
        probes_ok = probes_ok and sn_probe(conj, FULL).overall == CONSISTENT
    ok = worst <= 1e-9 and probes_ok
    report(
        7, ok,
        f"conjugates of the Lukasiewicz implication match the direct "
        f"construction (max {worst:.3g}) and pass both class probes "
        f"for phi in {{identity, x^2, sqrt(x)}}",
    )


def test_criterion_08_class_separation():
    probe = sn_probe(piecewise_f_candidate(), FULL)
    w = probe.witness
    ep_gap = abs(w["left"] - w["right"]) if w and "left" in w else 0.0

    n_i = natural_negation(yager_residual_candidate(2.0))
    neg_gap = max(abs(n_i(x) - (1.0 - x)) for x in FULL.grid())
    ok = probe.overall == EXCLUDED and ep_gap >= 0.05 and neg_gap > 0.1
    report(
        8, ok,
        f"plateau implication excluded from (S,N) class with EP gap "
        f"{ep_gap:g}; natural negation of residual p=2 deviates from "
        f"the standard negation by {neg_gap:.3g}",
    )


def test_criterion_09_family_endpoints_and_generated_form():
    g = FULL.grid()
    drastic, minimum = yager_connective(0.0), yager_connective(math.inf)
    exact = all(
        drastic.fn(x, y) == t_drastic(x, y)
        and minimum.fn(x, y) == t_minimum(x, y)
        for x in g
        for y in g
    )
    worst = 0.0
    for p in (0.5, 1.0, 2.0, 3.0):
        r = compare_surfaces(
            generated_tnorm_connective(yager_f(p)), yager_connective(p), FULL
        )
        worst = max(worst, r.max_discrepancy)
    ok = exact and worst <= 1e-9
    report(
        9, ok,
        f"family endpoints exact (drastic at p=0, minimum at p=inf); "
        f"generator route matches closed form within {worst:.3g}",
    )


def test_criterion_10_archimedean_witnesses():
    brute = 0.9
    steps = 1
    while brute > 0.5:
        brute = max(0.0, brute - (1.0 - 0.9))
        steps += 1
    n_l = archimedean_witness(basic("lukasiewicz"), 0.9, 0.5, 100)
    n_m = archimedean_witness(basic("min"), 0.6, 0.5, 1000)
    ok = n_l == 6 and n_l == steps and n_m is None
    report(
        10, ok,
        f"n-fold power of 0.9 reaches 0.5 at n={n_l} (brute force {steps}); "
        f"minimum never gets there",
    )
