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

import functools
import math
import sys
from bisect import bisect_left
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # `reports` loads only with a check that samples
    from .reports import PropertyReport

INF = math.inf

DECREASING = "decreasing"
INCREASING = "increasing"


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


@functools.cache
def wide():
    """The mpmath module, imported at the first wide evaluation.

    Every extended-precision site asks here, so a run that stays in
    float never loads mpmath.  Cached, so a later call is one C-level
    call instead of an import statement: the 40-digit chains ask at
    every point.
    """
    import mpmath

    return mpmath


def is_mpf(v) -> bool:
    """Whether v is an ``mpmath.mpf``.  An mpf exists only once mpmath is
    imported, so the test loads nothing."""
    mpmath = sys.modules.get("mpmath")
    return mpmath is not None and isinstance(v, mpmath.mpf)


def root(v, p):
    """v**(1/p), keeping the exponent at the precision of v.

    The closed forms are written generically so they also accept
    ``mpmath.mpf`` values: the generated-implication chains evaluate at
    extended precision internally, where a double-rounded exponent would
    ruin the f(f^(-1)) round trip.
    """
    if isinstance(v, float):
        return v ** (1.0 / p)
    return v ** (1 / wide().mpf(p))


class Record:
    """A read-only record: its fields are its ``__slots__``, in order, each
    set once by ``__init__`` through ``_fill``.  Equality and hashing are
    identity."""

    __slots__ = ()

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def replace(self, **changes):
        """A copy with the fields in ``changes`` replaced; TypeError for a
        name that is not a field."""
        unknown = changes.keys() - set(self.__slots__)
        if unknown:
            raise TypeError(f"{type(self).__name__} has no field {min(unknown)!r}")
        return type(self)(**{name: changes.get(name, getattr(self, name))
                             for name in self.__slots__})


class Generator(Record):
    """A strictly monotone map [0,1] -> [0,+inf] with its closed-form
    pseudo-inverse ``inverse``."""

    __slots__ = ("direction", "fn", "inverse", "label")

    def __init__(self, direction: str, fn: Callable[[float], float],
                 inverse: Callable[[float], float], label: str):
        if direction not in (DECREASING, INCREASING):
            raise ValueError(f"bad direction {direction!r}")
        self._fill(direction, fn, inverse, label)

    def __call__(self, x: float) -> float:
        check_unit(x)
        return self.fn(x)


def pseudo_inverse(g: Generator, y: float) -> float:
    """Sup-based pseudo-inverse of the generator, total on [0,+inf].

    The closed-form inverse answers at the precision of ``y``: an mpf
    stays an mpf, so an extended-precision chain through a generated
    connective is not rounded to a double after its inner step.
    """
    if not y >= 0.0:  # NaN included
        raise DomainError(f"y={y!r} outside [0,+inf]")
    v = g.inverse(y)
    if isinstance(y, float) or not is_mpf(y):
        v = float(v)
    return 0.0 if v < 0.0 else 1.0 if v > 1.0 else v  # clamp01, inline


def verify_generator(g: Generator) -> PropertyReport:
    """Check strict monotonicity and the zero endpoint on a 101-point grid."""
    from .reports import SampleSpec, failing, passing

    spec = SampleSpec(grid_n=101, random_count=0)
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
    inv_p = 1.0 / p  # root(y, p) of a double y

    def fn(x):
        return (1.0 - x) ** p

    def inv(y):
        if y >= 1.0:
            return 0.0
        if isinstance(y, float):
            return 1.0 - y ** inv_p
        return 1.0 - root(y, p)

    return Generator(DECREASING, fn, inv, f"yager_f(p={p:g})")


def power_gp(p: float) -> Generator:
    """Increasing generator 1-(1-x)^p: g = f(0) - f for f = yager_f(p); pairs with N_p."""
    f = yager_f(p)
    f_fn, f_inv = f.fn, f.inverse

    def fn(x):
        return 1.0 - f_fn(x)

    def inv(y):
        return 1.0 if y >= 1.0 else f_inv(1.0 - y)

    return Generator(INCREASING, fn, inv, f"power_gp(p={p:g})")


def neg_log() -> Generator:
    """Increasing generator -ln(1-x); generates the probabilistic sum."""

    def fn(x):
        if x >= 1.0:
            return INF
        if isinstance(x, float):
            return -math.log1p(-x)
        return -wide().log(1 - x)

    def inv(y):
        if isinstance(y, float):
            return -math.expm1(-y)
        return 1 - wide().exp(-y)

    return Generator(INCREASING, fn, inv, "neg_log")


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

    return Generator(INCREASING, fn, inv, "piecewise_f")


def _interpolate(xs: Sequence[float], ys: Sequence[float]) -> Callable[[float], float]:
    """The map through the nodes (xs[i], ys[i]), xs increasing, linear in
    between and at its end values outside [xs[0], xs[-1]]."""

    def fn(x: float) -> float:
        i = bisect_left(xs, x)
        if i == len(xs):
            return ys[-1]
        if xs[i] == x or i == 0:
            return ys[i]
        x0, x1 = xs[i - 1], xs[i]
        y0, y1 = ys[i - 1], ys[i]
        t = (x - x0) / (x1 - x0)
        return y0 + t * (y1 - y0)

    return fn


def _table_nodes(points: list[tuple[float, float]]) -> tuple[list[float], list[float]]:
    """The x and y columns of finite points that cover x = 0 and x = 1,
    sorted by x."""
    pts = sorted((float(x), float(y)) for x, y in points)
    if len(pts) < 2 or pts[0][0] != 0.0 or pts[-1][0] != 1.0:
        raise ValueError("table must span x=0..1 with at least two points")
    if not all(math.isfinite(v) for pt in pts for v in pt):
        raise ValueError("table values must be finite")
    return [p[0] for p in pts], [p[1] for p in pts]


def linear_table(points: list[tuple[float, float]]) -> Callable[[float], float]:
    """The map through the (x, y) sample points, linear in between."""
    return _interpolate(*_table_nodes(points))


def table_generator(
    direction: str, points: list[tuple[float, float]]
) -> Generator:
    """Generator given by sample points, linearly interpolated in between.

    Points must be strictly monotone in the stated direction, with the
    zero endpoint of a generator: g(0) = 0 increasing, f(1) = 0 decreasing.
    The pseudo-inverse of such a continuous map is its inverse on the range,
    the table of the swapped (y, x) nodes, and outside the range the sup
    of the empty set (0) or of all of [0,1] (1): the end values of that
    table.
    """
    xs, ys = _table_nodes(points)
    # the swapped (y, x) nodes, sorted by y
    inv = (ys, xs) if direction == INCREASING else (ys[::-1], xs[::-1])
    # built before the check below, so a bad direction is reported as one
    g = Generator(direction, _interpolate(xs, ys), _interpolate(*inv), "table")
    if not all(a < b for v in (xs, inv[0]) for a, b in zip(v, v[1:])):
        raise ValueError(f"table points must be strictly {direction}")
    zero_at = 1.0 if direction == DECREASING else 0.0
    if g.fn(zero_at) != 0.0:
        raise ValueError(f"table must take 0 at x={zero_at:g} when {direction}")
    return g
