"""Additive generators of t-norms and t-conorms, and their pseudo-inverses.

A decreasing generator f maps [0,1] onto part of [0, +inf] with f(1) = 0;
an increasing generator g satisfies g(0) = 0.  The pseudo-inverse is the
sup-based monotone extension of the ordinary inverse:

* decreasing:  f^(-1)(y) = sup{x in [0,1] | f(x) > y}
* increasing:  g^(-1)(y) = sup{x in [0,1] | g(x) < y}

with sup of the empty set taken as 0.  Generator values live in the
extended nonnegative reals; IEEE ``inf`` already gives the saturating
+inf (inf + a == inf, a < inf for all finite a), so values are plain
floats and no wrapper type is needed.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable

import mpmath

from .reports import SampleSpec, PropertyReport, failing, passing

INF = math.inf

DECREASING = "decreasing"
INCREASING = "increasing"

BISECT_ITERS = 100


class DomainError(ValueError):
    """Argument outside [0,1] or value outside [0,+inf]."""


class DirectionError(TypeError):
    """Generator of the wrong monotonicity direction for the operation."""


def require_direction(g: Generator, direction: str, role: str) -> None:
    if g.direction != direction:
        raise DirectionError(f"{role} generator must be {direction}")


def check_unit(x: float, name: str = "x") -> None:
    """Reject an argument outside [0,1], NaN included."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"{name}={x!r} outside [0,1]")


def clamp01(v: float) -> float:
    return 0.0 if v < 0.0 else 1.0 if v > 1.0 else v


def root(v, p):
    """v**(1/p), keeping the exponent at the precision of v.

    The closed forms are written generically so they also accept
    ``mpmath.mpf`` values: the generated-implication chains evaluate at
    extended precision internally, where a double-rounded exponent would
    ruin the f(f^(-1)) round trip.
    """
    if isinstance(v, float):
        return v ** (1.0 / p)
    return v ** (1 / mpmath.mpf(p))


@dataclass(frozen=True)
class Generator:
    """A strictly monotone map [0,1] -> [0,+inf] with optional closed inverse.

    ``inverse`` is the closed-form pseudo-inverse; ``None`` means the
    pseudo-inverse is computed by bisection.  ``endpoint_limit`` is
    f(0+) for decreasing generators and g(1-) for increasing ones.
    """

    direction: str
    fn: Callable[[float], float]
    inverse: Callable[[float], float] | None
    endpoint_limit: float
    label: str

    def __post_init__(self):
        if self.direction not in (DECREASING, INCREASING):
            raise ValueError(f"bad direction {self.direction!r}")

    def __call__(self, x: float) -> float:
        return eval_generator(self, x)


def eval_generator(g: Generator, x: float) -> float:
    check_unit(x)
    return g.fn(x)


def pseudo_inverse(g: Generator, y: float) -> float:
    """Sup-based pseudo-inverse of the generator, total on [0,+inf].

    A closed-form inverse answers at the precision of ``y``: an mpf stays
    an mpf, so an extended-precision chain through a generated connective
    is not rounded to a double after its inner step.
    """
    if y != y or y < 0.0:
        raise DomainError(f"y={y!r} outside [0,+inf]")
    if g.inverse is not None:
        v = g.inverse(y)
        return clamp01(v if isinstance(y, mpmath.mpf) else float(v))
    if g.direction == DECREASING:
        return bisect_sup(lambda t: g.fn(t) > y)
    return bisect_sup(lambda t: g.fn(t) < y)


def bisect_sup(pred: Callable[[float], bool]) -> float:
    """sup{t in [0,1] | pred(t)} for a predicate true on an initial segment
    of [0,1], with sup of the empty set = 0.

    Bisects until the midpoint of the bracket equals one of its ends (or
    BISECT_ITERS halvings) and returns the last t known to satisfy pred.
    """
    if pred(1.0):
        return 1.0
    if not pred(0.0):
        return 0.0
    lo, hi = 0.0, 1.0  # invariant: pred(lo) and not pred(hi)
    for _ in range(BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo


def verify_generator(g: Generator, samples: int = 101) -> PropertyReport:
    """Check strict monotonicity and the zero endpoint on a sample grid."""
    if samples < 2:
        raise ValueError("samples must be >= 2")
    spec = SampleSpec(grid_n=samples, random_count=0)
    xs = spec.grid()
    vals = [g.fn(x) for x in xs]

    zero_at = 1.0 if g.direction == DECREASING else 0.0
    v0 = g.fn(zero_at)
    if v0 != 0.0:
        return failing(
            "generator-endpoint",
            spec,
            {"x": zero_at, "value": v0},
            abs(v0),
        )

    for (x1, v1), (x2, v2) in zip(zip(xs, vals), zip(xs[1:], vals[1:])):
        ok = v1 > v2 if g.direction == DECREASING else v1 < v2
        if not ok:
            return failing(
                "generator-strict-monotonicity",
                spec,
                {"x1": x1, "x2": x2, "value1": v1, "value2": v2},
                0.0,
            )
    return passing("generator-definition", spec)


# --------------------------------------------------------------------------
# Built-in catalog.  These are the generators the residual/implication
# constructions exercise; each ships a hand-derived closed-form inverse.
# --------------------------------------------------------------------------


def yager_f(p: float) -> Generator:
    """Decreasing generator (1-x)^p of the Yager t-norm family, p > 0."""
    if not p > 0 or math.isinf(p):
        raise ValueError("p must be finite and positive")

    def fn(x):
        return (1.0 - x) ** p

    def inv(y):
        if y >= 1.0:
            return 0.0
        return 1.0 - root(y, p)

    return Generator(DECREASING, fn, inv, 1.0, f"yager_f(p={p:g})")


def power_gp(p: float) -> Generator:
    """Increasing generator 1-(1-x)^p; pairs with the negation N_p."""
    if not p > 0 or math.isinf(p):
        raise ValueError("p must be finite and positive")

    def fn(x):
        return 1.0 - (1.0 - x) ** p

    def inv(y):
        if y >= 1.0:
            return 1.0
        if y <= 0.0:
            return 0.0
        return 1.0 - root(1.0 - y, p)

    return Generator(INCREASING, fn, inv, 1.0, f"power_gp(p={p:g})")


def neg_log() -> Generator:
    """Increasing generator -ln(1-x); generates the probabilistic sum."""

    def fn(x):
        if x >= 1.0:
            return INF
        if isinstance(x, float):
            return -math.log1p(-x)
        return -mpmath.log(1 - x)

    def inv(y):
        if isinstance(y, float):
            return -math.expm1(-y)
        return 1 - mpmath.exp(-y)

    return Generator(INCREASING, fn, inv, INF, "neg_log")


def piecewise_f() -> Generator:
    """Increasing generator with a range gap: x on [0,0.5], 0.5+0.5x above.

    The gap (0.5, 0.75] in the range makes the pseudo-inverse plateau at
    0.5, which is what breaks the exchange principle of the implication
    built from it.
    """

    def fn(x: float) -> float:
        return x if x <= 0.5 else 0.5 + 0.5 * x

    def inv(y: float) -> float:
        if y <= 0.5:
            return y
        if y <= 0.75:
            return 0.5
        if y <= 1.0:
            return 2.0 * y - 1.0
        return 1.0

    return Generator(INCREASING, fn, inv, 1.0, "piecewise_f")


def linear_table(points: list[tuple[float, float]]) -> Callable[[float], float]:
    """The map through the (x, y) sample points, linear in between.

    Points must be finite and cover x = 0 and x = 1.
    """
    pts = sorted((float(x), float(y)) for x, y in points)
    if len(pts) < 2 or pts[0][0] != 0.0 or pts[-1][0] != 1.0:
        raise ValueError("table must span x=0..1 with at least two points")
    if not all(math.isfinite(v) for pt in pts for v in pt):
        raise ValueError("table values must be finite")
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]

    def fn(x: float) -> float:
        i = bisect_left(xs, x)
        if i < len(xs) and xs[i] == x:
            return ys[i]
        x0, x1 = xs[i - 1], xs[i]
        y0, y1 = ys[i - 1], ys[i]
        t = (x - x0) / (x1 - x0)
        return y0 + t * (y1 - y0)

    return fn


def table_generator(
    direction: str, points: list[tuple[float, float]]
) -> Generator:
    """Generator given by sample points, linearly interpolated in between.

    Points must be strictly monotone in the stated direction; the
    pseudo-inverse falls back to bisection.
    """
    fn = linear_table(points)
    endpoint = fn(0.0) if direction == DECREASING else fn(1.0)
    return Generator(direction, fn, None, endpoint, "table")
