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
    BinaryConnective,
    Negation,
    generated_tconorm_connective,
    standard_negation,
)
from .generators import (
    INCREASING,
    Generator,
    clamp01,
    is_mpf,
    require_direction,
    wide,
)

# working precision for the generator-chain evaluations; the pseudo-inverse
# takes a p-th root next to a saturation point, which amplifies the last
# ulp of a double to ~1e-5, so the chain runs wider and rounds at the end
CHAIN_DPS = 40


def _at_chain_dps(f):
    """f evaluated at CHAIN_DPS; mpmath is loaded at the first call."""

    def wide_f(*args):
        with wide().workdps(CHAIN_DPS):
            return f(*args)

    return wide_f


def chain_eval(f, *args):
    """f of the arguments as mpf, at CHAIN_DPS; mpmath is loaded at the first call."""
    return _at_chain_dps(lambda: f(*map(wide().mpf, args)))()


SCAN_POINTS = 4096  # fallback scan when C(x,.) is not monotone
# halvings at double precision; an mpf bracket gets as many more as its
# precision has bits beyond a double's 53
BISECT_ITERS = 100

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
    is evaluated once.  The bisection runs at the precision of its
    arguments (an mpf x or y bisects mpf midpoints at the working
    precision) and halves until the midpoint of the bracket equals one of
    its ends (or BISECT_ITERS halvings, more for an mpf); when the upper
    end never left 1, C(x,t) <= y holds for every t below 1, so the
    supremum is 1, not attained (the drastic t-norm), and 1 is returned.
    """
    top = c(x, 1.0)
    if top <= y:
        return 1.0
    bottom = c(x, 0.0)
    if not _monotone_in_second(c, x, bottom, top):
        return _residual_scan(c, x, y)
    if bottom > y:
        return 0.0
    lo, hi, halvings = 0.0, 1.0, BISECT_ITERS  # invariant: C(x,lo) <= y < C(x,hi)
    if is_mpf(x) or is_mpf(y):
        mpmath = wide()
        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        halvings += mpmath.mp.prec - 53
    for _ in range(halvings):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if c(x, mid) <= y:
            lo = mid
        else:
            hi = mid
    return 1.0 if hi == 1 else lo


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
    """R[C]: the residual operator C carries, else ``residual_numeric``."""
    if c.residual is not None:
        return c.residual.replace(label=f"R[{c.label}]")
    return ImplicationCandidate(functools.partial(residual_numeric, c), f"R[{c.label}]")


def mean_residual(x: float, y: float) -> float:
    """Residual of the quadratic mean; fails I(0,0)=1, so not an implication."""
    v = 2.0 * y * y - x * x
    return math.sqrt(0.0 if v < 0.0 else 1.0 if v > 1.0 else v)  # min(max(v, 0.0), 1.0), inline


def mean_residual_candidate() -> ImplicationCandidate:
    return ImplicationCandidate(mean_residual, "M_r")


# --------------------------------------------------------------------------
# Generated implications
# --------------------------------------------------------------------------


def ign_candidate(g: Generator, n: Negation) -> ImplicationCandidate:
    """I^g_N = S_g(N(x), y) for strictly increasing g with g(0)=0: the cell of
    ``generated_tconorm_connective(g)`` on the parts u(x) = (N(X), g(N(X)))
    and v(y) = (Y, g(Y)), X and Y the arguments as mpf at CHAIN_DPS, rounded
    once to a double unless the caller passed an mpf.  S_g's neutral element
    0 makes I(1, y) = y and I(x, 0) = N(x) exact."""
    require_direction(g, INCREASING, "implication")
    g_fn, s_cell = g.fn, generated_tconorm_connective(g).parts[2]

    def u(x):
        a = wide().mpf(n(wide().mpf(x)))  # a table negation answers a float at a node
        return a, g_fn(a)

    def v(y):
        y = wide().mpf(y)
        return y, g_fn(y)

    def cell(a, b, x: float, y: float) -> float:
        w = s_cell(a[1], b[1], a[0], b[0])
        return w if is_mpf(x) or is_mpf(y) else float(w)

    return ImplicationCandidate(_at_chain_dps(lambda x, y: cell(u(x), v(y), x, y)),
                                f"IgN[{g.label},{n.label}]",
                                parts=tuple(map(_at_chain_dps, (u, v, cell))))


_STANDARD = standard_negation()


# The double enclosure of I^g: each generator argument moves outward by
# ARG_SLACK, which covers the rounding of 1-x and the 1-x inside power_gp's
# closed form (an error p times 2^-53 relative at p up to 1000); the sum,
# then the inverse's value, move outward by VALUE_SLACK relative plus
# VALUE_SLACK absolute, which covers a few ulp of every catalog closed form.
ARG_SLACK = 2.0**-50
VALUE_SLACK = 2.0**-44


def _ig_end(fn, inverse, a: float, y: float, side: float) -> float:
    """g^(-1)(g(a) + g(y)) in double for g's ``fn`` and ``inverse``, pushed
    outward on ``side`` (+1 up, -1 down).  Each clamp01 and max is written
    out: the enclosure runs two to four times per EP triple."""
    a += side * ARG_SLACK
    y += side * ARG_SLACK
    s = (fn(0.0 if a < 0.0 else 1.0 if a > 1.0 else a)
         + fn(0.0 if y < 0.0 else 1.0 if y > 1.0 else y))
    if s < math.inf:  # g(1) = inf saturates either way: inf - inf is NaN
        s += side * (s * VALUE_SLACK + VALUE_SLACK)
        if s < 0.0:
            s = 0.0
    v = inverse(s)
    v += side * (v * VALUE_SLACK + VALUE_SLACK)
    return 0.0 if v < 0.0 else 1.0 if v > 1.0 else v


def _ig_enclosure(g: Generator):
    """bounds(x, y_lo, y_hi): a double (lo, hi) with lo <= I^g(x, y) <= hi for
    every y in [y_lo, y_hi], with g's fn and inverse bound once.  It takes
    the float chain at y_lo and at y_hi, each moved outward, as I^g is
    nondecreasing in g's sum.  Needs g's ``fn`` and ``inverse`` accurate to
    a few ulp in double, as the catalog's and the tables' are.

    The lower end is at least max(y_lo, 1 - x) - ARG_SLACK, since
    g^(-1)(g(a) + g(y)) >= max(a, y) for a strictly increasing g.  Where
    g^(-1) is steep next to g(1) (power_gp 2 at (0, 0), at (1, 1), or at
    x = 1 with y next to 1) the chain's slack alone leaves the lower end
    ~3e-7 below a value that is exactly 1 or y.  ARG_SLACK covers the
    rounding of 1 - x and a wide value just below a double y (power_gp 0.1
    at (1, 0.05) is ~1e-40 below 0.05).  At x = 1 the upper end is at most
    y_hi + ARG_SLACK, as I^g(1, y) = y: the chain's slack alone puts it a
    VALUE_SLACK above y, which an outer g^(-1) steep next to g(1) widens
    (power_gp 7: to 5.4e-6 above 1 - x at x = 0.05, y = 1, z = 0).
    """
    fn, inverse = g.fn, g.inverse

    def bounds(x: float, y_lo: float, y_hi: float) -> tuple[float, float]:
        a = 1.0 - x
        lo = _ig_end(fn, inverse, a, y_lo, -1.0)
        floor = (a if a > y_lo else y_lo) - ARG_SLACK  # max, inline: 2-4 calls per EP triple
        hi = _ig_end(fn, inverse, a, y_hi, 1.0)
        if x == 1.0 and hi > y_hi + ARG_SLACK:  # I^g(1, y) = y
            hi = y_hi + ARG_SLACK
        return lo if lo > floor else floor, hi

    return bounds


def ig_candidate(g: Generator) -> ImplicationCandidate:
    """I^g: I^g_N at the standard negation, with ``_ig_enclosure`` as its bounds."""
    return ign_candidate(g, _STANDARD).replace(label=f"Ig[{g.label}]",
                                               bounds=_ig_enclosure(g))


def sn_candidate(s: BinaryConnective, n: Negation) -> ImplicationCandidate:
    """(S,N)-implication S(N(x), y)."""
    return ImplicationCandidate(lambda x, y: s(n(x), y), f"SN[{s.label},{n.label}]")


def phi_conjugate_candidate(
    i: ImplicationCandidate, phi: Bijection
) -> ImplicationCandidate:
    """phi^-1(I(phi(x), phi(y)))."""
    forward, inverse = phi.forward, phi.inverse
    return ImplicationCandidate(lambda x, y: clamp01(inverse(i(forward(x), forward(y)))),
                                f"conj[{i.label},{phi.label}]")


def build_intersection_member(phi: Bijection) -> ImplicationCandidate:
    """I(x,y) = phi^-1(min(1 - phi(x) + phi(y), 1)): the conjugate of the
    Lukasiewicz implication, with natural negation phi^-1(1 - phi(x))."""

    forward, inverse = phi.forward, phi.inverse
    # the value wherever 1 - phi(x) + phi(y) > 1; at exactly 1 an mpf still
    # goes through inverse, which keeps its precision
    top = clamp01(inverse(1.0))

    def cell(a: float, b: float, x: float, y: float) -> float:
        # a = phi(x), b = phi(y); min(v, 1.0) and clamp01, written out; a
        # NaN passes both unchanged
        v = 1.0 - a + b
        if v > 1.0:
            return top
        v = inverse(v)
        return 0.0 if v < 0.0 else 1.0 if v > 1.0 else v

    def fn(x: float, y: float) -> float:
        return cell(forward(x), forward(y), x, y)

    return ImplicationCandidate(fn, f"I_phi[{phi.label}]", parts=(forward, forward, cell))


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
