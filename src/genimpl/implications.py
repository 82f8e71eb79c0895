"""Implication candidates: residual operators and generated implications.

A candidate is just a map [0,1]^2 -> [0,1], the same labelled operator
type as a connective; nothing here assumes the implication axioms hold.
Whether a candidate actually is a fuzzy implication is the verification
engine's job (the quadratic mean's residual deliberately fails the
boundary condition).

I^g_N(x,y) = g^(-1)(g(N(x)) + g(y)) is S_g(N(x), y), the (S,N)-implication
of the t-conorm generated by g; I^g is I^g_N at the standard negation.
"""

from __future__ import annotations

import functools
import math

from .bijections import Bijection
from .connectives import (
    _SMALLEST_NORMAL,
    BinaryConnective,
    Negation,
    generated_tconorm,
    standard_negation,
)
from .generators import (
    INCREASING,
    Generator,
    clamp01,
    is_mpf,
    pseudo_inverse,
    require_direction,
    root,
    wide,
)

# working precision for the generator-chain evaluations; the pseudo-inverse
# takes a p-th root next to a saturation point, which amplifies the last
# ulp of a double to ~1e-5, so the chain runs wider and rounds at the end
CHAIN_DPS = 40

SCAN_POINTS = 4096  # fallback scan when C(x,.) is not monotone
BISECT_ITERS = 100
_BELOW_ONE = 1.0 - 2.0**-53  # the last double below 1

# an implication candidate is a binary operator like any other; the name
# says which laws a caller is about to check
ImplicationCandidate = BinaryConnective


# --------------------------------------------------------------------------
# Residual operators
# --------------------------------------------------------------------------


def _monotone_in_second(
    c: BinaryConnective, x: float, bottom: float, top: float
) -> bool:
    """C(x,.) looks nondecreasing on 17 probes, from bottom = C(x,0) to top = C(x,1)."""
    prev = bottom
    for i in range(1, 16):
        cur = c(x, i / 16)
        if cur < prev - 1e-12:
            return False
        prev = cur
    return not top < prev - 1e-12


def residual_numeric(c: BinaryConnective, x: float, y: float) -> float:
    """sup{t in [0,1] | C(x,t) <= y}, with sup of the empty set = 0.

    Bisection over t when C(x,.) looks monotone on a coarse probe; a
    detected monotonicity violation falls back to a dense scan with
    local refinement.  Ties at plateaus resolve to the supremum (the
    rightmost boundary), which bisection on the predicate gives for free.
    When C(x,1) <= y the supremum is 1 and neither is needed; otherwise
    the probe reuses C(x,1) and the bisection the probe's C(x,0), so each
    is evaluated once.  The bisection halves until the midpoint of the
    bracket equals one of its ends (or BISECT_ITERS halvings); where
    C(x,t) <= y still holds at the last double below 1, the supremum is
    1, not attained (the drastic t-norm), and 1 is returned.
    """
    top = c(x, 1.0)
    if top <= y:
        return 1.0
    bottom = c(x, 0.0)
    if not _monotone_in_second(c, x, bottom, top):
        return _residual_scan(c, x, y)
    if bottom > y:
        return 0.0
    lo, hi = 0.0, 1.0  # invariant: C(x,lo) <= y < C(x,hi)
    for _ in range(BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if c(x, mid) <= y:
            lo = mid
        else:
            hi = mid
    return 1.0 if lo == _BELOW_ONE else lo


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


def generated_residual(f: Generator, x: float, y: float) -> float:
    """f^(-1)(max(f(y) - f(x), 0)): the residual of the t-norm generated
    by a continuous decreasing f, exactly 1.0 for x <= y.

    Answers at the precision of its arguments: an mpf stays an mpf.  The
    neutral element is handled exactly, R(1,y) = y: for yager_f(p) the
    round trip f^(-1)(f(y)) loses about ulp/p, all of y at a tiny p.
    """
    if x <= y:
        return 1.0
    if x == 1.0:
        return y
    return pseudo_inverse(f, max(f.fn(y) - f.fn(x), 0.0))


def residual_candidate(c: BinaryConnective) -> ImplicationCandidate:
    """R[C]: in closed form from C's generator when it has one, else by
    ``residual_numeric``."""
    f = c.generator
    if f is not None:
        return ImplicationCandidate(
            lambda x, y: generated_residual(f, x, y), f"R[{c.label}]"
        )
    return ImplicationCandidate(
        lambda x, y: residual_numeric(c, x, y), f"R[{c.label}]"
    )


def yager_residual(p: float, x: float, y: float) -> float:
    """Closed-form residual of the Yager t-norm, p > 0.

    The subtraction of nearly equal powers is clamped at 0 before the
    root so x <= y yields exactly 1; R(1,y) = y exactly, as in generated_residual.
    In double, where (1-y)^p underflows at a large p, both powers are taken
    relative to m = 1 - y: R = 1 - m (1 - ((1-x)/m)^p)^(1/p).
    """
    if not 0 < p < math.inf:
        raise ValueError("p must be finite and positive")
    a = (1.0 - y) ** p
    d = a - (1.0 - x) ** p
    if isinstance(d, float) and a < _SMALLEST_NORMAL and y < 1.0:
        if x <= y:  # where (1-x)/m >= 1, whose p-th power may overflow
            return 1.0
        m = 1.0 - y
        d = 1.0 - ((1.0 - x) / m) ** p
        return y if x == 1.0 else clamp01(1.0 - m * root(d, p))
    if d <= 0.0:
        return 1.0
    if x == 1.0:
        return y
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


def ign_implication(g: Generator, n: Negation, x: float, y: float) -> float:
    """S_g(N(x), y) for strictly increasing g with g(0)=0, at CHAIN_DPS;
    rounded once to a double unless the caller passed an mpf."""
    require_direction(g, INCREASING, "implication")
    mpmath = wide()
    with mpmath.workdps(CHAIN_DPS):
        v = generated_tconorm(g, n(mpmath.mpf(x)), mpmath.mpf(y))
    return v if is_mpf(x) or is_mpf(y) else float(v)


_STANDARD = standard_negation()


def ig_implication(g: Generator, x: float, y: float) -> float:
    """g^(-1)(g(1-x) + g(y)): I^g_N at the standard negation."""
    return ign_implication(g, _STANDARD, x, y)


# The double enclosure of I^g: each generator argument moves outward by
# ARG_SLACK, which covers the rounding of 1-x and the 1-x inside power_gp's
# closed form (an error p times 2^-53 relative at p up to 1000); the sum,
# then the inverse's value, move outward by VALUE_SLACK relative plus
# VALUE_SLACK absolute, which covers a few ulp of every catalog closed form.
ARG_SLACK = 2.0**-50
VALUE_SLACK = 2.0**-44


def _ig_end(g: Generator, a: float, y: float, side: float) -> float:
    """g^(-1)(g(a) + g(y)) in double, pushed outward on ``side`` (+1 up, -1 down)."""
    s = g.fn(clamp01(a + side * ARG_SLACK)) + g.fn(clamp01(y + side * ARG_SLACK))
    if s < math.inf:  # g(1) = inf saturates either way: inf - inf is NaN
        s = max(s + side * (s * VALUE_SLACK + VALUE_SLACK), 0.0)
    v = g.inverse(s)
    return clamp01(v + side * (v * VALUE_SLACK + VALUE_SLACK))


def ig_bounds(g: Generator, x: float, y_lo: float, y_hi: float) -> tuple[float, float]:
    """A double (lo, hi) with lo <= I^g(x, y) <= hi for every y in [y_lo, y_hi]:
    the float chain at y_lo and at y_hi, each moved outward, as I^g is
    nondecreasing in g's sum.  Needs g's ``fn`` and ``inverse`` accurate to
    a few ulp in double, as the catalog's and the tables' are.
    """
    a = 1.0 - x
    return _ig_end(g, a, y_lo, -1.0), _ig_end(g, a, y_hi, 1.0)


def ig_candidate(g: Generator) -> ImplicationCandidate:
    """I^g, with the float enclosure ``ig_bounds``."""
    require_direction(g, INCREASING, "implication")
    return ImplicationCandidate(lambda x, y: ig_implication(g, x, y), f"Ig[{g.label}]",
                                bounds=functools.partial(ig_bounds, g))


def ign_candidate(g: Generator, n: Negation) -> ImplicationCandidate:
    require_direction(g, INCREASING, "implication")
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
