"""Hand-written closed forms of the operators the workloads use.

Each is written from its mathematical definition, not from the package's
code, and is evaluated at ``DPS`` significant digits, so a known value
does not depend on the package's floating-point rounding.  The
functions take ``mpmath.mpf`` arguments; call them through :func:`at`.
"""

from __future__ import annotations

import math

import mpmath
from mpmath import mpf

DPS = 50


def at(fn, *args) -> float:
    """fn evaluated at the exact values of the float arguments."""
    with mpmath.workdps(DPS):
        return float(fn(*(mpf(a) for a in args)))


def _root(v, p):
    return v ** (1 / mpf(p))


# -- implications -----------------------------------------------------------


def lukasiewicz(x, y):
    return min(mpf(1), 1 - x + y)


def reichenbach(x, y):
    # Ig with g(x) = -ln(1-x): 1 - exp(ln x + ln(1-y)) = 1 - x + xy
    return 1 - x + x * y


def goguen(x, y):
    return mpf(1) if x <= y else y / x


def goedel(x, y):
    return mpf(1) if x <= y else y


def yager_residual(p):
    # sup{t | T_p(x,t) <= y} for T_p(x,t) = 1 - ((1-x)^p + (1-t)^p)^(1/p)
    def fn(x, y):
        if x <= y:
            return mpf(1)
        return 1 - _root((1 - y) ** p - (1 - x) ** p, p)

    return fn


def ig_power(p):
    # g(x) = 1 - (1-x)^p, g^(-1)(s) = 1 - (1-s)^(1/p) below 1, 1 above
    def fn(x, y):
        s = (1 - x ** p) + (1 - (1 - y) ** p)
        return mpf(1) if s >= 1 else 1 - _root(1 - s, p)

    return fn


def lk_conjugate(a):
    # phi^(-1)(I_LK(phi(x), phi(y))) for phi(x) = x^a; it is also the
    # (S,N)-implication of the Yager t-conorm min(1, (x^a + y^a)^(1/a))
    # with the strong negation (1 - x^a)^(1/a)
    def fn(x, y):
        return _root(min(mpf(1), 1 - x ** a + y ** a), a)

    return fn


def mean_residual(x, y):
    # sup{t | sqrt((x^2 + t^2)/2) <= y}, sup of the empty set being 0
    return mpmath.sqrt(min(max(2 * y * y - x * x, mpf(0)), mpf(1)))


def _g_piecewise(x):
    return x if x <= mpf(0.5) else mpf(0.5) + x / 2


def _g_piecewise_inv(y):
    # sup{x | g(x) < y}; the range gap (0.5, 0.75] maps to the plateau 0.5
    if y <= mpf(0.5):
        return y
    if y <= mpf(0.75):
        return mpf(0.5)
    if y <= 1:
        return 2 * y - 1
    return mpf(1)


def piecewise_implication(x, y):
    return _g_piecewise_inv(_g_piecewise(1 - x) + _g_piecewise(y))


# -- t-norms, t-conorms and means -------------------------------------------


def product(x, y):
    return x * y


def probabilistic_sum(x, y):
    return x + y - x * y


def minimum(x, y):
    return min(x, y)


def yager_tnorm(p):
    def fn(x, y):
        if math.isinf(p):
            return min(x, y)
        return max(mpf(0), 1 - _root((1 - x) ** p + (1 - y) ** p, p))

    return fn


def quadratic_mean(x, y):
    return mpmath.sqrt((x * x + y * y) / 2)


def dual(c):
    def fn(x, y):
        return 1 - c(1 - x, 1 - y)

    return fn


def piecewise_tconorm(x, y):
    return _g_piecewise_inv(_g_piecewise(x) + _g_piecewise(y))


# -- negations --------------------------------------------------------------


def standard_negation(x):
    return 1 - x


def yager_negation(p):
    def fn(x):
        return 1 - _root(1 - (1 - x) ** p, p)

    return fn


def power_negation(a):
    def fn(x):
        return _root(1 - x ** a, a)

    return fn
