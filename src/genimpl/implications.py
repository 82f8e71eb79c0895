"""Implication candidates: residual operators and generated implications.

A candidate is just a map [0,1]^2 -> [0,1], the same labelled operator
type as a connective; nothing here assumes the implication axioms hold.
Whether a candidate actually is a fuzzy implication is the verification
engine's job (the quadratic mean's residual deliberately fails the
boundary condition).
"""

from __future__ import annotations

import math

import mpmath

from .bijections import Bijection
from .connectives import BinaryConnective, Negation
from .generators import (
    INCREASING,
    Generator,
    bisect_sup,
    clamp01,
    pseudo_inverse,
    require_direction,
    root,
)

# working precision for the generator-chain evaluations; the pseudo-inverse
# takes a p-th root next to a saturation point, which amplifies the last
# ulp of a double to ~1e-5, so the chain runs wider and rounds at the end
CHAIN_DPS = 40

SCAN_POINTS = 4096  # fallback scan when C(x,.) is not monotone

# an implication candidate is a binary operator like any other; the name
# says which laws a caller is about to check
ImplicationCandidate = BinaryConnective


# --------------------------------------------------------------------------
# Residual operators
# --------------------------------------------------------------------------


def _monotone_in_second(c: BinaryConnective, x: float, probes: int = 17) -> bool:
    prev = c(x, 0.0)
    for i in range(1, probes):
        cur = c(x, i / (probes - 1))
        if cur < prev - 1e-12:
            return False
        prev = cur
    return True


def residual_numeric(c: BinaryConnective, x: float, y: float) -> float:
    """sup{t in [0,1] | C(x,t) <= y}, with sup of the empty set = 0.

    Bisection over t when C(x,.) looks monotone on a coarse probe; a
    detected monotonicity violation falls back to a dense scan with
    local refinement.  Ties at plateaus resolve to the supremum (the
    rightmost boundary), which bisection on the predicate gives for free.
    """
    if _monotone_in_second(c, x):
        return bisect_sup(lambda t: c(x, t) <= y)
    return _residual_scan(c, x, y)


def _residual_scan(c: BinaryConnective, x: float, y: float) -> float:
    best = -1.0
    for i in range(SCAN_POINTS + 1):
        t = i / SCAN_POINTS
        if c(x, t) <= y:
            best = t
    if best < 0.0:
        return 0.0
    # refine inside the cell to the right of the last feasible scan point
    step = 1.0 / SCAN_POINTS
    fine = 1024
    out = best
    for i in range(1, fine + 1):
        t = min(1.0, best + step * i / fine)
        if c(x, t) <= y:
            out = t
    return out


def residual_candidate(c: BinaryConnective) -> ImplicationCandidate:
    return ImplicationCandidate(
        lambda x, y: residual_numeric(c, x, y), f"R[{c.label}]"
    )


def yager_residual(p: float, x: float, y: float) -> float:
    """Closed-form residual of the Yager t-norm, p > 0.

    The subtraction of nearly equal powers is clamped at 0 before the
    root so x <= y yields exactly 1.
    """
    if not 0 < p < math.inf:
        raise ValueError("p must be finite and positive")
    d = (1.0 - y) ** p - (1.0 - x) ** p
    if d <= 0.0:
        return 1.0
    return clamp01(1.0 - root(d, p))


def yager_residual_candidate(p: float) -> ImplicationCandidate:
    return ImplicationCandidate(
        lambda x, y: yager_residual(p, x, y), f"I_TY(p={p:g})"
    )


def mean_residual(x: float, y: float) -> float:
    """Residual of the quadratic mean; fails I(0,0)=1, so not an implication."""
    return math.sqrt(min(max(2.0 * y * y - x * x, 0.0), 1.0))


def mean_residual_candidate() -> ImplicationCandidate:
    return ImplicationCandidate(mean_residual, "M_r")


# --------------------------------------------------------------------------
# Generated implications
# --------------------------------------------------------------------------


def _require_increasing(g: Generator) -> None:
    require_direction(g, INCREASING, "implication")


def ig_implication(g: Generator, x: float, y: float) -> float:
    """g^(-1)(g(1-x) + g(y)) for strictly increasing g with g(0)=0."""
    _require_increasing(g)
    with mpmath.workdps(CHAIN_DPS):
        s = g.fn(1 - mpmath.mpf(x)) + g.fn(mpmath.mpf(y))
        return _at_precision_of(x, y, pseudo_inverse(g, s))


def ign_implication(g: Generator, n: Negation, x: float, y: float) -> float:
    """g^(-1)(g(N(x)) + g(y)); the standard negation recovers the plain form."""
    _require_increasing(g)
    with mpmath.workdps(CHAIN_DPS):
        z = min(max(n.fn(mpmath.mpf(x)), 0), 1)
        s = g.fn(z) + g.fn(mpmath.mpf(y))
        return _at_precision_of(x, y, pseudo_inverse(g, s))


def _at_precision_of(x, y, v):
    """v rounded once to a double, unless the caller's chain is already mpf."""
    if isinstance(x, mpmath.mpf) or isinstance(y, mpmath.mpf):
        return v
    return float(v)


def ig_candidate(g: Generator) -> ImplicationCandidate:
    _require_increasing(g)
    return ImplicationCandidate(
        lambda x, y: ig_implication(g, x, y), f"Ig[{g.label}]"
    )


def ign_candidate(g: Generator, n: Negation) -> ImplicationCandidate:
    _require_increasing(g)
    return ImplicationCandidate(
        lambda x, y: ign_implication(g, n, x, y), f"IgN[{g.label},{n.label}]"
    )


def sn_implication(s: BinaryConnective, n: Negation, x: float, y: float) -> float:
    """(S,N)-implication S(N(x), y)."""
    return s(n(x), y)


def sn_candidate(s: BinaryConnective, n: Negation) -> ImplicationCandidate:
    return ImplicationCandidate(
        lambda x, y: sn_implication(s, n, x, y), f"SN[{s.label},{n.label}]"
    )


def lukasiewicz_implication(x: float, y: float) -> float:
    return min(1.0 - x + y, 1.0)


def lukasiewicz_candidate() -> ImplicationCandidate:
    return ImplicationCandidate(lukasiewicz_implication, "I_LK")


def phi_conjugate(
    i: ImplicationCandidate, phi: Bijection, x: float, y: float
) -> float:
    """phi^-1(I(phi(x), phi(y)))."""
    return clamp01(phi.inverse(i(phi.forward(x), phi.forward(y))))


def phi_conjugate_candidate(
    i: ImplicationCandidate, phi: Bijection
) -> ImplicationCandidate:
    return ImplicationCandidate(
        lambda x, y: phi_conjugate(i, phi, x, y), f"conj[{i.label},{phi.label}]"
    )


def piecewise_f_implication(x: float, y: float) -> float:
    """Six-branch closed form of the implication generated by the
    piecewise generator; must agree with the generator route pointwise."""
    if x >= 0.5 and y <= 0.5:
        d = x - y
        if d >= 0.5:
            return 1.0 - x + y
        if d >= 0.25:
            return 0.5
        return 1.0 - 2.0 * x + 2.0 * y
    if x < 0.5 and y <= 0.5:
        return min(1.0 - x + 2.0 * y, 1.0)
    if x >= 0.5:  # y > 0.5
        return min(2.0 - 2.0 * x + y, 1.0)
    return 1.0


def piecewise_f_candidate() -> ImplicationCandidate:
    return ImplicationCandidate(piecewise_f_implication, "I_piecewise_f")


def natural_negation(i: ImplicationCandidate) -> Negation:
    """N_I(x) = I(x, 0)."""
    return Negation(lambda x: i(x, 0.0), f"N[{i.label}]")
