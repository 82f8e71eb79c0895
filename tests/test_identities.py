"""The identity web: where a theorem says two constructions are one
operator, their surfaces must agree within 1e-9 on the default plan.

Each row names the theorem that makes it an identity, so a failing row
is a defect of the engine, not of a reference implementation.  The rows
that fail today (large p, the (S,N) route through a power generator)
are open items of ROADMAP.md, item 2; they enter here with their fix.
"""

import pytest

from genimpl.implications import natural_negation
from genimpl.properties import compare_surfaces
from genimpl.reports import SampleSpec
from genimpl.specs import parse_binary, parse_negation

PLAN = SampleSpec(tolerance=1e-9)
LUKASIEWICZ = {"kind": "lukasiewicz"}


def power_gp(p):
    return {"kind": "power_gp", "p": p}


ROWS = [
    # The residual of the t-norm generated by f is I^g_N with g = f(0) - f and
    # N the natural negation f^(-1)(f(0) - f(x)) (the paper's theorem); for
    # f(t) = (1 - t)^p that is g = power_gp p and N = yager_np p
    *((f"residual of the Yager t-norm is I^g_N, p={p}",
       {"kind": "yager_residual", "p": p},
       {"kind": "ign", "g": power_gp(p), "N": {"kind": "yager_np", "p": p}})
      for p in (0.5, 2, 3.7)),
    # f(t) = (1 - t)^p is an additive generator of the Yager t-norm
    *((f"the Yager t-norm is generated by yager_f, p={p}",
       {"kind": "yager_tnorm", "p": p},
       {"kind": "generated_tnorm", "f": {"kind": "yager_f", "p": p}})
      for p in (0.5, 2, 20)),
    # g(t) = t: g^(-1)(g(1 - x) + g(y)) = min(1 - x + y, 1)
    ("I^g of the identity generator is Lukasiewicz", {"kind": "ig", "g": power_gp(1)},
     LUKASIEWICZ),
    # phi(x) = x^1 is the identity map, which conjugates Lukasiewicz to itself
    ("the phi-conjugate of Lukasiewicz by power 1 is Lukasiewicz",
     {"kind": "phi_conjugate", "phi": {"kind": "power", "a": 1}}, LUKASIEWICZ),
    # the Yager t-norm at p = 1 is the Lukasiewicz t-norm, whose residual
    # is the Lukasiewicz implication
    ("the residual of the Yager t-norm at p=1 is Lukasiewicz",
     {"kind": "residual", "of": {"kind": "yager_tnorm", "p": 1}}, LUKASIEWICZ),
    # I^g(x, y) = S_g(1 - x, y) by definition: the (S,N)-implication of the
    # t-conorm generated by g at the standard negation
    *((f"I^g is the (S,N)-implication of S_g, g={name}", {"kind": "ig", "g": g},
       {"kind": "sn", "S": {"kind": "generated_tconorm", "g": g}, "N": {"kind": "standard"}})
      for name, g in (("neg_log", {"kind": "neg_log"}), ("power_gp 20", power_gp(20)))),
    # dual is an involution: 1 - (1 - T(1 - (1 - x), 1 - (1 - y))) = T(x, y)
    *((f"the residual of a double dual is the residual, T={name}",
       {"kind": "residual", "of": {"kind": "dual", "of": {"kind": "dual", "of": t}}},
       {"kind": "residual", "of": t})
      for name, t in (("min", {"kind": "basic", "name": "min"}),
                      ("yager_tnorm 2", {"kind": "yager_tnorm", "p": 2}))),
]


@pytest.mark.parametrize("left, right", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS])
def test_identity(left, right):
    report = compare_surfaces(parse_binary(left), parse_binary(right), PLAN)
    assert report.holds, report.details["argmax"]


# I^g_N(x, 0) = S_g(N(x), 0) = N(x), as 0 is the neutral element of S_g: the
# natural negation of I^g_N is N
@pytest.mark.parametrize("g, n", [
    (power_gp(2), {"kind": "yager_np", "p": 2}),
    (power_gp(20), {"kind": "yager_np", "p": 20}),
    ({"kind": "neg_log"}, {"kind": "standard"}),
], ids=["power_gp 2, yager_np 2", "power_gp 20, yager_np 20", "neg_log, standard"])
def test_natural_negation_of_ign_is_n(g, n):
    natural = natural_negation(parse_binary({"kind": "ign", "g": g, "N": n}))
    negation = parse_negation(n)
    gap = max(abs(natural(x) - negation(x)) for x in PLAN.points_1d())
    assert gap <= PLAN.tolerance
