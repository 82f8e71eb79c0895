"""T-norms, t-conorms, fuzzy negations, and the quadratic mean.

Both the basic closed forms and the generator-derived constructions are
provided.  Everything returns values clamped to [0,1] so round-off never
leaks outside the lattice into downstream compositions (residuals feed
these values back into further connectives).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .generators import (
    DECREASING,
    INCREASING,
    Generator,
    clamp01,
    linear_table,
    pseudo_inverse,
    require_direction,
    root,
)


@dataclass(frozen=True)
class BinaryConnective:
    """A labelled map [0,1]^2 -> [0,1]: a t-norm, t-conorm, mean or
    implication candidate alike, until a check says which laws it obeys.

    The value keeps the precision of ``fn``'s result (an mpf stays an mpf),
    so a wide chain through a nested operator is not rounded to a double.
    """

    fn: Callable[[float, float], float]
    label: str

    def __call__(self, x: float, y: float) -> float:
        return clamp01(self.fn(x, y))


@dataclass(frozen=True)
class Negation:
    """A decreasing map [0,1] -> [0,1] with N(0)=1, N(1)=0."""

    fn: Callable[[float], float]
    label: str

    def __call__(self, x: float) -> float:
        return clamp01(float(self.fn(x)))


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


_BASIC_TNORMS = {
    "min": t_minimum,
    "minimum": t_minimum,
    "product": t_product,
    "lukasiewicz": t_lukasiewicz,
    "drastic": t_drastic,
}


def _basic_fn(kind: str):
    try:
        return _BASIC_TNORMS[kind]
    except KeyError:
        raise ValueError(f"unknown basic t-norm {kind!r}") from None


def basic_tnorm(kind: str, x: float, y: float) -> float:
    return _basic_fn(kind)(x, y)


def basic(kind: str) -> BinaryConnective:
    return BinaryConnective(_basic_fn(kind), f"T_{kind}")


# --------------------------------------------------------------------------
# Generated connectives
# --------------------------------------------------------------------------


def generated_tnorm(f: Generator, x: float, y: float) -> float:
    """f^(-1)(f(x) + f(y)) for a decreasing generator f."""
    require_direction(f, DECREASING, "t-norm")
    return pseudo_inverse(f, f.fn(x) + f.fn(y))


def generated_tconorm(g: Generator, x: float, y: float) -> float:
    """g^(-1)(g(x) + g(y)) for an increasing generator g."""
    require_direction(g, INCREASING, "t-conorm")
    return pseudo_inverse(g, g.fn(x) + g.fn(y))


def generated_tnorm_connective(f: Generator) -> BinaryConnective:
    require_direction(f, DECREASING, "t-norm")
    return BinaryConnective(lambda x, y: generated_tnorm(f, x, y), f"T[{f.label}]")


def generated_tconorm_connective(g: Generator) -> BinaryConnective:
    require_direction(g, INCREASING, "t-conorm")
    return BinaryConnective(lambda x, y: generated_tconorm(g, x, y), f"S[{g.label}]")


def dual_of(c: BinaryConnective) -> BinaryConnective:
    """Pointwise dual 1 - C(1-x, 1-y); maps t-norms to t-conorms."""
    return BinaryConnective(
        lambda x, y: 1.0 - c(1.0 - x, 1.0 - y), f"dual[{c.label}]"
    )


def yager_tnorm(p: float, x: float, y: float) -> float:
    """Yager family: drastic at p=0, minimum at p=+inf, closed form between.

    The endpoint parameters dispatch to the exact special cases; taking
    floating limits of the closed form there is meaningless.
    """
    if not p >= 0:
        raise ValueError("p must be >= 0")
    if p == 0.0:
        return t_drastic(x, y)
    if math.isinf(p):
        return t_minimum(x, y)
    # neutral element handled exactly: the p-th root of the p-th power
    # is off by an ulp, which residual bisection would amplify to ~1e-5
    if y == 1.0:
        return x
    if x == 1.0:
        return y
    s = (1.0 - x) ** p + (1.0 - y) ** p
    if s >= 1.0:  # root(s, p) >= 1; at a tiny p the root would overflow
        return 0.0
    return max(0.0, 1.0 - root(s, p))


def yager_connective(p: float) -> BinaryConnective:
    return BinaryConnective(lambda x, y: yager_tnorm(p, x, y), f"T_Y(p={p:g})")


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
    return Negation(lambda x: 1.0 - x, "N_standard")


def yager_negation(p: float) -> Negation:
    """N_p(x) = 1 - (1 - (1-x)^p)^(1/p), the natural negation of the
    Yager residual; collapses to the standard negation at p=1."""
    if not p > 0 or math.isinf(p):
        raise ValueError("p must be finite and positive")

    def fn(x):
        return 1.0 - root(1.0 - (1.0 - x) ** p, p)

    return Negation(fn, f"N_p(p={p:g})")


def phi_negation(forward: Callable[[float], float],
                 inverse: Callable[[float], float],
                 label: str = "phi") -> Negation:
    """N(x) = phi^-1(1 - phi(x)) for an increasing bijection phi."""
    return Negation(lambda x: inverse(1.0 - forward(x)), f"N_{label}")


def dual_negation(n: Negation) -> Negation:
    return Negation(lambda x: 1.0 - n(1.0 - x), f"dual[{n.label}]")


def table_negation(points: list[tuple[float, float]]) -> Negation:
    return Negation(linear_table(points), "N_table")


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
    if not all(math.isfinite(v) for row in values for v in row):
        raise ValueError("table values must be finite")
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
