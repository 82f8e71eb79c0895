"""T-norms with their residuals, t-conorms, fuzzy negations, and the
quadratic mean.

Both the basic closed forms and the generator-derived constructions are
provided.  Everything returns values clamped to [0,1] so round-off never
leaks outside the lattice into downstream compositions, and at the
precision they were computed in: an mpf stays an mpf, so a wide chain
through connectives and negations is rounded once, at its end.
"""

from __future__ import annotations

import math
import sys
from itertools import repeat
from typing import Callable

from .bijections import Bijection
from .generators import (
    DECREASING,
    INCREASING,
    DomainError,
    Generator,
    Record,
    clamp01,
    linear_table,
    pseudo_inverse,
    require_direction,
    root,
    yager_f,
)

# a double below this is subnormal: a Yager power or sum of powers there
# has lost precision to underflow (at a large p)
_SMALLEST_NORMAL = sys.float_info.min


class BinaryConnective(Record):
    """A labelled map [0,1]^2 -> [0,1]: a t-norm, t-conorm, mean or
    implication candidate alike, until a check says which laws it obeys.

    The value keeps the precision of ``fn``'s result (an mpf stays an mpf),
    so a wide chain through a nested operator is not rounded to a double.
    ``residual`` is set only on a t-norm of the catalog: its residual operator
    sup{t | T(x,t) <= y}, in closed form and with parts where it has them.
    Every other operator leaves it None.
    ``bounds(x, y_lo, y_hi)`` is set only on a generated implication I^g:
    a double (lo, hi) enclosing fn(x, y) for every y in [y_lo, y_hi],
    which lets EP decide a triple without mpmath.
    ``parts = (u, v, cell)`` is set on an operator built from one-argument
    terms, such as f^(-1)(f(x) + f(y)): fn(x, y) == cell(u(x), v(y), x, y),
    bit for bit and type for type, and that value lies in [0,1] or is NaN,
    so it is the operator's value as it stands.  The grid sweeps ``lines``
    and ``table``, and the nested laws on the triple grid, evaluate each
    term once per sample point and only ``cell`` per cell.
    """

    __slots__ = ("fn", "label", "residual", "bounds", "parts")

    def __init__(
        self,
        fn: Callable[[float, float], float],
        label: str,
        residual: BinaryConnective | None = None,
        bounds: Callable[[float, float, float], tuple[float, float]] | None = None,
        parts: tuple[Callable, Callable, Callable] | None = None,
    ):
        self._fill(fn, label, residual, bounds, parts)

    def __call__(self, x: float, y: float) -> float:
        v = self.fn(x, y)
        return 0.0 if v < 0.0 else 1.0 if v > 1.0 else v  # clamp01, inline

    def lines(self, points, grid, first=False):
        """(c, values) for each c of ``grid``: the operator's values, as
        ``__call__`` returns them, along ``points`` in the second argument,
        self(c, y), or with ``first`` in the first, self(x, c).

        With ``parts`` the term of every point is evaluated once, the term
        of c once per line, and only ``cell`` per cell, whose value needs
        no clamp; otherwise fn per cell, clamped inline (a NaN stays NaN).
        The values of a line are lazy, so a scan that stops at a breaking
        pair evaluates no cell past it.  The points' terms are listed only
        when several lines share them: a single line streams them too, in
        the order fn would evaluate them.
        """
        if self.parts is None:
            fn = self.fn
            for c in grid:
                values = map(fn, points, repeat(c)) if first else map(fn, repeat(c), points)
                yield c, (0.0 if v < 0.0 else 1.0 if v > 1.0 else v for v in values)  # clamp01, inline
            return
        u, v, cell = self.parts
        terms = map(u if first else v, points)
        if len(grid) > 1:
            terms = list(terms)
        if first:
            for c in grid:
                yield c, map(cell, terms, repeat(v(c)), points, repeat(c))
        else:
            for c in grid:
                yield c, map(cell, repeat(u(c)), terms, repeat(c), points)

    def table(self, g) -> list[list[float]]:
        """rows[a][b] = self(g[a], g[b]), through ``lines``."""
        return [list(values) for _, values in self.lines(g, g)]


class Negation(Record):
    """A decreasing map [0,1] -> [0,1] with N(0)=1, N(1)=0; like a
    BinaryConnective, its value keeps the precision of ``fn``'s result."""

    __slots__ = ("fn", "label")

    def __init__(self, fn: Callable[[float], float], label: str):
        self._fill(fn, label)

    def __call__(self, x: float) -> float:
        v = self.fn(x)
        # int bounds, like the standard negation's 1: an mpf meets an int 3x faster
        return v if 0 <= v <= 1 else clamp01(v)


# --------------------------------------------------------------------------
# Basic t-norms
# --------------------------------------------------------------------------


def t_minimum(x: float, y: float) -> float:
    return min(x, y)


def t_product(x: float, y: float) -> float:
    return x * y


def t_lukasiewicz(x: float, y: float) -> float:
    # x - (1-y) rather than x+y-1: the subtractions are exact for
    # near-complementary arguments, so n-fold powers don't drift by an ulp
    return max(0.0, x - (1.0 - y))


def t_drastic(x: float, y: float) -> float:
    return 0.0 if max(x, y) < 1.0 else min(x, y)


# Their residuals; each answers exactly 1 for x <= y.


def goedel_implication(x: float, y: float) -> float:
    return 1.0 if x <= y else y


def goguen_implication(x: float, y: float) -> float:
    return 1.0 if x <= y else y / x


def lukasiewicz_implication(x: float, y: float) -> float:
    v = 1.0 - x + y
    return 1.0 if v > 1.0 else v  # min(v, 1.0), inline: a NaN stays NaN


def drastic_implication(x: float, y: float) -> float:
    # T_D(x,t) = 0 for every t < 1 when x < 1: the supremum is 1, not attained
    return 1.0 if x < 1.0 else y


# each basic t-norm with its residual
_BASIC = {
    "min": (t_minimum, goedel_implication),
    "minimum": (t_minimum, goedel_implication),
    "product": (t_product, goguen_implication),
    "lukasiewicz": (t_lukasiewicz, lukasiewicz_implication),
    "drastic": (t_drastic, drastic_implication),
}


def basic(kind: str) -> BinaryConnective:
    try:
        fn, residual = _BASIC[kind]
    except KeyError:
        raise ValueError(f"unknown basic t-norm {kind!r}") from None
    return BinaryConnective(fn, f"T_{kind}", BinaryConnective(residual, f"R[T_{kind}]"))


# --------------------------------------------------------------------------
# Generated connectives
# --------------------------------------------------------------------------


def _sum_generated(h: Generator, neutral: float, label: str,
                   residual: BinaryConnective | None = None) -> BinaryConnective:
    """h^(-1)(h(x) + h(y)) with parts u = v = h: the t-norm of a decreasing
    generator (neutral element 1) or the t-conorm of an increasing one
    (neutral element 0).  The neutral element is returned exactly: the
    round trip h^(-1)(h(x)) is off by an ulp, and loses x entirely wherever
    h saturates."""
    h_fn, h_inv = h.fn, h.inverse

    def cell(a: float, b: float, x: float, y: float) -> float:
        s = a + b
        if isinstance(s, float):  # pseudo_inverse(h, s), written out
            if not s >= 0.0:
                raise DomainError(f"y={s!r} outside [0,+inf]")
            v = float(h_inv(s))
            v = 0.0 if v < 0.0 else 1.0 if v > 1.0 else v
        else:
            v = pseudo_inverse(h, s)
        # v is computed even at the neutral element, so a generator whose
        # sum goes negative is rejected there too
        return x if y == neutral else y if x == neutral else v

    def fn(x: float, y: float) -> float:
        return cell(h_fn(x), h_fn(y), x, y)

    return BinaryConnective(fn, label, residual, parts=(h_fn, h_fn, cell))


def generated_tnorm_connective(f: Generator) -> BinaryConnective:
    """f^(-1)(f(x) + f(y)) for a decreasing generator f, with parts u = v = f:
    the direction is checked once, here.  Its residual f^(-1)(max(f(y) - f(x), 0))
    has the same parts; it is exactly 1.0 for x <= y, and exactly y at x = 1:
    for yager_f(p) the round trip f^(-1)(f(y)) loses about ulp/p, all of y at a tiny p.
    """
    require_direction(f, DECREASING, "t-norm")
    f_fn, f_inv = f.fn, f.inverse

    def residual_cell(a: float, b: float, x: float, y: float) -> float:  # a = f(x), b = f(y)
        if x <= y:
            return 1.0
        if x == 1.0:
            return y
        d = max(b - a, 0.0)
        if not isinstance(d, float):
            return pseudo_inverse(f, d)
        if not d >= 0.0:  # pseudo_inverse(f, d), written out
            raise DomainError(f"y={d!r} outside [0,+inf]")
        v = float(f_inv(d))
        return 0.0 if v < 0.0 else 1.0 if v > 1.0 else v

    def residual(x: float, y: float) -> float:  # with no f where the value is 1 or y
        return 1.0 if x <= y else y if x == 1.0 else residual_cell(f_fn(x), f_fn(y), x, y)

    # every decreasing generator, yager_f or a table, is continuous
    label = f"T[{f.label}]"
    r = BinaryConnective(residual, f"R[{label}]", parts=(f_fn, f_fn, residual_cell))
    return _sum_generated(f, 1.0, label, r)


def generated_tconorm_connective(g: Generator) -> BinaryConnective:
    """g^(-1)(g(x) + g(y)) for an increasing generator g, with parts u = v = g:
    the direction is checked once, here."""
    require_direction(g, INCREASING, "t-conorm")
    return _sum_generated(g, 0.0, f"S[{g.label}]")


def dual_of(c: BinaryConnective) -> BinaryConnective:
    """Pointwise dual 1 - C(1-x, 1-y); maps t-norms to t-conorms."""
    return BinaryConnective(
        lambda x, y: 1.0 - c(1.0 - x, 1.0 - y), f"dual[{c.label}]"
    )


def _power_operator(p: float, cell, label: str, residual=None) -> BinaryConnective:
    """fn(x, y) = cell((1-x)^p, (1-y)^p, x, y) with its parts, the powers
    written inline in fn so a point evaluation pays one call for ``cell``."""

    def power(t: float) -> float:
        return (1.0 - t) ** p

    def fn(x: float, y: float) -> float:
        return cell((1.0 - x) ** p, (1.0 - y) ** p, x, y)

    return BinaryConnective(fn, label, residual, parts=(power, power, cell))


def yager_connective(p: float) -> BinaryConnective:
    """The Yager t-norm at p with its residual: the drastic pair at p=0 and
    the minimum pair at p=+inf, the closed forms with their parts between.
    The endpoint parameters dispatch to the exact special cases, once,
    here; taking floating limits of the closed form there is meaningless.
    """
    if not p >= 0:
        raise ValueError("p must be >= 0")
    label = f"T_Y(p={p:g})"
    if p == 0.0 or math.isinf(p):
        return basic("drastic" if p == 0.0 else "min").replace(label=label)
    # root(s, p) of a double s, and the module constant, bound to the closure
    inv_p, smallest_normal = 1.0 / p, _SMALLEST_NORMAL

    def cell(a: float, b: float, x: float, y: float) -> float:
        # a = (1-x)^p, b = (1-y)^p.  Neutral element handled exactly: the
        # p-th root of the p-th power is off by an ulp, which residual
        # bisection would amplify to ~1e-5
        if y == 1.0:
            return x
        if x == 1.0:
            return y
        s = a + b
        if s >= 1.0:  # root(s, p) >= 1; at a tiny p the root would overflow
            return 0.0
        if not isinstance(s, float):
            return max(0.0, 1.0 - root(s, p))
        if s < smallest_normal:
            # both powers underflow at a large p: scale by m = max(1-x, 1-y)
            m = max(1.0 - x, 1.0 - y)
            s = ((1.0 - x) / m) ** p + ((1.0 - y) / m) ** p
            v = 1.0 - m * s ** inv_p
        else:
            v = 1.0 - s ** inv_p
        # T <= min(x, y), which the rounded root can pass by an ulp (p >= 20);
        # max(0.0, min(v, lo)), inline: a NaN gives 0.0 too
        lo = x if x < y else y
        return 0.0 if not v > 0.0 else v if v <= lo else lo

    return _power_operator(p, cell, label, yager_residual_candidate(p))


def yager_residual_candidate(p: float) -> BinaryConnective:
    """The residual of the Yager t-norm at 0 < p < inf, with its parts
    (u, v, cell), u = v = (1-t)^p: p is checked once, here.

    The subtraction of nearly equal powers is clamped at 0 before the
    root so x <= y yields exactly 1, and R(1,y) = y exactly.
    In double, where (1-y)^p underflows at a large p, both powers are taken
    relative to m = 1 - y: R = 1 - m (1 - ((1-x)/m)^p)^(1/p).
    """
    if not 0 < p < math.inf:
        raise ValueError("p must be finite and positive")
    # root(d, p) of a double d, and the module constant, bound to the closure
    inv_p, smallest_normal = 1.0 / p, _SMALLEST_NORMAL

    def cell(b: float, a: float, x: float, y: float) -> float:
        # b = (1-x)^p, a = (1-y)^p
        d = a - b
        double = isinstance(d, float)
        if double and a < smallest_normal and y < 1.0:
            if x <= y:  # where (1-x)/m >= 1, whose p-th power may overflow
                return 1.0
            if x == 1.0:
                return y
            m = 1.0 - y
            v = 1.0 - m * (1.0 - ((1.0 - x) / m) ** p) ** inv_p
        elif d <= 0.0:
            return 1.0
        elif x == 1.0:
            return y
        else:
            v = 1.0 - (d ** inv_p if double else root(d, p))
        return 0.0 if v < 0.0 else 1.0 if v > 1.0 else v  # clamp01, inline

    return _power_operator(p, cell, f"I_TY(p={p:g})")


def quasi_arithmetic_mean(x: float, y: float) -> float:
    """Quadratic mean sqrt((x^2 + y^2)/2); not a t-norm (fails T4)."""
    return math.sqrt(0.5 * (x * x + y * y))


def mean_connective() -> BinaryConnective:
    return BinaryConnective(quasi_arithmetic_mean, "M_quad")


def n_ary_power(c: BinaryConnective, x: float, n: int) -> float:
    """n-fold power x, C(x,x), C(x, C(x,x)), ..."""
    if n < 1:
        raise ValueError("n must be >= 1")
    v = x
    for _ in range(n - 1):
        v = c(x, v)
    return v


def archimedean_witness(
    c: BinaryConnective, x: float, y: float, n_max: int
) -> int | None:
    """Smallest n <= n_max with the n-fold power of x at or below y."""
    if not (0.0 < x < 1.0 and 0.0 < y < 1.0):
        raise ValueError("x and y must lie strictly inside (0,1)")
    v = x
    for n in range(1, n_max + 1):
        if n > 1:
            v = c(x, v)
        if v <= y:
            return n
    return None


# --------------------------------------------------------------------------
# Negations
# --------------------------------------------------------------------------


def standard_negation() -> Negation:
    return Negation(lambda x: 1 - x, "N_standard")


def yager_negation(p: float) -> Negation:
    """N_p(x) = 1 - (1 - (1-x)^p)^(1/p), the natural negation R(x,0) of the
    Yager residual, from its generator f: f^(-1)(f(0) - f(x)); standard at p=1."""
    f = yager_f(p)
    return Negation(lambda x: pseudo_inverse(f, f.fn(0.0) - f.fn(x)), f"N_p(p={p:g})")


def phi_negation(phi: Bijection) -> Negation:
    """N(x) = phi^-1(1 - phi(x)) for an increasing bijection phi."""
    forward, inverse = phi.forward, phi.inverse
    return Negation(lambda x: inverse(1.0 - forward(x)), f"N_{phi.label}")


def dual_negation(n: Negation) -> Negation:
    return Negation(lambda x: 1.0 - n(1.0 - x), f"dual[{n.label}]")


def table_negation(points: list[tuple[float, float]]) -> Negation:
    """The negation through the (x, y) points, linear in between; each y
    must lie in [0,1]."""
    fn = linear_table(points)  # checks the points' shape and finiteness
    if not all(0.0 <= float(y) <= 1.0 for _, y in points):
        raise ValueError("table values must lie in [0,1]")
    return Negation(fn, "N_table")


# --------------------------------------------------------------------------
# Table connective (bilinear interpolation on a regular grid)
# --------------------------------------------------------------------------


def table_connective(values: list[list[float]], label: str = "table") -> BinaryConnective:
    """Connective from an n x n grid of values at (i/(n-1), j/(n-1)).

    Bilinear interpolation between nodes; it is the simplest scheme that
    preserves monotonicity of monotone tables.
    """
    n = len(values)
    if n < 2 or any(len(row) != n for row in values):
        raise ValueError("values must be a square grid with n >= 2")
    # the nested laws compose the raw fn, so it must not leave [0,1]
    if not all(0.0 <= v <= 1.0 for row in values for v in row):
        raise ValueError(f"{label} values must be finite and in [0,1]")
    h = 1.0 / (n - 1)

    def fn(x: float, y: float) -> float:
        i = min(int(x / h), n - 2)
        j = min(int(y / h), n - 2)
        tx = x / h - i
        ty = y / h - j
        v00 = values[i][j]
        v10 = values[i + 1][j]
        v01 = values[i][j + 1]
        v11 = values[i + 1][j + 1]
        return (
            v00 * (1 - tx) * (1 - ty)
            + v10 * tx * (1 - ty)
            + v01 * (1 - tx) * ty
            + v11 * tx * ty
        )

    return BinaryConnective(fn, label)
