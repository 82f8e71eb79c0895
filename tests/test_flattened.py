"""The double-precision closed forms evaluated in one frame: each must give
what the expression it replaced gave, bit for bit and type for type, on
the default pairs, on 50 mpf pairs, and at NaN and -0.0.  The replaced
expressions are written out below as they were."""

import math
import struct
import sys

import mpmath
import pytest

from genimpl.bijections import identity_bijection, power_bijection
from genimpl.connectives import yager_connective, yager_residual_candidate
from genimpl.generators import (
    DECREASING,
    INCREASING,
    DomainError,
    Generator,
    clamp01,
    is_mpf,
    neg_log,
    piecewise_f,
    power_gp,
    pseudo_inverse,
    root,
    table_generator,
    yager_f,
)
from genimpl.implications import (
    ARG_SLACK,
    CHAIN_DPS,
    VALUE_SLACK,
    _ig_end,
    build_intersection_member,
    ig_candidate,
)
from genimpl.reports import SampleSpec

PAIRS = SampleSpec().pairs()
MPF_PAIRS = SampleSpec(grid_n=5, random_count=25, seed=3).pairs()  # 50 points
NAN = math.nan
ODD_PAIRS = [(NAN, 0.5), (0.5, NAN), (NAN, NAN), (NAN, 1.0), (1.0, NAN), (-0.0, 0.5),
             (0.5, -0.0), (-0.0, -0.0), (-0.0, 1.0), (1.0, -0.0), (-0.0, NAN)]


def identical(got, want) -> bool:
    """Same type and the same value: a double bit for bit (the sign of a
    zero included, any NaN equal to any NaN), an mpf by value."""
    if type(got) is not type(want):
        return False
    if isinstance(got, float):
        if math.isnan(got) or math.isnan(want):
            return math.isnan(got) and math.isnan(want)
        return struct.pack("<d", got) == struct.pack("<d", want)
    return got == want


def mpf_pairs():
    return [(mpmath.mpf(x), mpmath.mpf(y)) for x, y in MPF_PAIRS]


# The replaced expressions.


def old_pseudo_inverse(g, y):
    if y != y or y < 0.0:
        raise DomainError(f"y={y!r} outside [0,+inf]")
    v = g.inverse(y)
    wide_y = not isinstance(y, float) and is_mpf(y)
    return clamp01(v if wide_y else float(v))


def old_yager_f_inverse(p, y):
    if y >= 1.0:
        return 0.0
    return 1.0 - root(y, p)


def old_power_gp_inverse(p, y):
    if y >= 1.0:
        return 1.0
    if y <= 0.0:
        return 0.0
    return 1.0 - root(1.0 - y, p)


def old_yager_cell(p, a, b, x, y):
    if y == 1.0:
        return x
    if x == 1.0:
        return y
    s = a + b
    if s >= 1.0:
        return 0.0
    if not isinstance(s, float):
        return max(0.0, 1.0 - root(s, p))
    if s < sys.float_info.min:
        m = max(1.0 - x, 1.0 - y)
        s = ((1.0 - x) / m) ** p + ((1.0 - y) / m) ** p
        return min(max(0.0, 1.0 - m * s ** (1.0 / p)), x, y)
    return min(max(0.0, 1.0 - s ** (1.0 / p)), x, y)


def old_yager_residual_cell(p, b, a, x, y):
    d = a - b
    if isinstance(d, float) and a < sys.float_info.min and y < 1.0:
        if x <= y:
            return 1.0
        m = 1.0 - y
        d = 1.0 - ((1.0 - x) / m) ** p
        return y if x == 1.0 else clamp01(1.0 - m * root(d, p))
    if d <= 0.0:
        return 1.0
    if x == 1.0:
        return y
    return clamp01(1.0 - root(d, p))


def old_intersection_cell(phi, a, b, x, y):
    v = 1.0 - a + b
    v = phi.inverse(1.0 if v > 1.0 else v)
    return 0.0 if v < 0.0 else 1.0 if v > 1.0 else v


def old_ig_end(g, a, y, side):
    s = g.fn(clamp01(a + side * ARG_SLACK)) + g.fn(clamp01(y + side * ARG_SLACK))
    if s < math.inf:
        s = max(s + side * (s * VALUE_SLACK + VALUE_SLACK), 0.0)
    v = g.inverse(s)
    return clamp01(v + side * (v * VALUE_SLACK + VALUE_SLACK))


def old_ig_bounds(g, x, y_lo, y_hi):
    a = 1.0 - x
    lo = old_ig_end(g, a, y_lo, -1.0)
    floor = (a if a > y_lo else y_lo) - ARG_SLACK
    hi = old_ig_end(g, a, y_hi, 1.0)
    if x == 1.0:  # I^g(1, y) = y caps the upper end
        hi = min(hi, y_hi + ARG_SLACK)
    return lo if lo > floor else floor, hi


# Generators and their pseudo-inverse.

YAGER_P = (0.5, 2.0, 3.7, 1000.0)
POWER_P = (0.1, 0.5, 2.0, 7.0, 1000.0)
TABLE_F = table_generator(DECREASING, [(0.0, 1.0), (0.5, 0.3), (1.0, 0.0)])
TABLE_G = table_generator(INCREASING, [(0.0, 0.0), (0.5, 0.3), (1.0, 1.0)])
GENERATORS = [*map(yager_f, YAGER_P), TABLE_F, *map(power_gp, POWER_P), neg_log(),
              piecewise_f(), TABLE_G]
GENERATOR_IDS = [g.label for g in GENERATORS]


def sums(g, pairs):
    """g(x) + g(y) on the pairs: the arguments a generated connective
    passes to the pseudo-inverse, infinite ones included (neg_log at 1)."""
    return [g.fn(x) + g.fn(y) for x, y in pairs]


@pytest.mark.parametrize("g", GENERATORS, ids=GENERATOR_IDS)
def test_pseudo_inverse_is_the_old_expression(g):
    ys = [*sums(g, PAIRS), -0.0, 0.0, 1.0, 2.0, math.inf, 1, 0]
    for y in ys:
        assert identical(pseudo_inverse(g, y), old_pseudo_inverse(g, y)), y
    with mpmath.workdps(CHAIN_DPS):
        for y in [*sums(g, mpf_pairs()), mpmath.mpf(0), mpmath.mpf(1)]:
            assert identical(pseudo_inverse(g, y), old_pseudo_inverse(g, y)), y


@pytest.mark.parametrize("g", GENERATORS, ids=GENERATOR_IDS)
@pytest.mark.parametrize("y", [-1e-300, -0.5, -math.inf, NAN, -1, "mpf -1", "mpf nan"])
def test_pseudo_inverse_rejects_a_negative_or_nan_sum(g, y):
    if isinstance(y, str):
        y = mpmath.mpf(y.split()[1])
    with pytest.raises(DomainError):
        pseudo_inverse(g, y)
    with pytest.raises(DomainError):
        old_pseudo_inverse(g, y)


@pytest.mark.parametrize("p", YAGER_P)
def test_yager_f_inverse_is_the_old_expression(p):
    g = yager_f(p)
    for y in [*sums(g, PAIRS + ODD_PAIRS), -0.0, 1.0, math.inf, 0]:
        assert identical(g.inverse(y), old_yager_f_inverse(p, y)), y
    with mpmath.workdps(CHAIN_DPS):
        for y in sums(g, mpf_pairs()):
            assert identical(g.inverse(y), old_yager_f_inverse(p, y)), y


@pytest.mark.parametrize("p", POWER_P)
def test_power_gp_inverse_is_the_old_expression(p):
    g = power_gp(p)
    for y in [*sums(g, PAIRS + ODD_PAIRS), -0.0, 1.0, math.inf, 0, 1]:
        assert identical(g.inverse(y), old_power_gp_inverse(p, y)), y
    with mpmath.workdps(CHAIN_DPS):
        for y in sums(g, mpf_pairs()):
            assert identical(g.inverse(y), old_power_gp_inverse(p, y)), y


# The cells of the Yager t-norm, the Yager residual and the phi-conjugate of
# the Lukasiewicz implication, called with their own parts.


def check_cell(op, old_cell):
    u, v, cell = op.parts
    for x, y in PAIRS + ODD_PAIRS:
        a, b = u(x), v(y)
        assert identical(cell(a, b, x, y), old_cell(a, b, x, y)), (x, y)
    with mpmath.workdps(CHAIN_DPS):
        for x, y in mpf_pairs():
            a, b = u(x), v(y)
            assert identical(cell(a, b, x, y), old_cell(a, b, x, y)), (x, y)


@pytest.mark.parametrize("p", YAGER_P)
def test_yager_cell_is_the_old_expression(p):
    check_cell(yager_connective(p), lambda a, b, x, y: old_yager_cell(p, a, b, x, y))


@pytest.mark.parametrize("p", YAGER_P)
def test_yager_residual_cell_is_the_old_expression(p):
    check_cell(yager_residual_candidate(p),
               lambda b, a, x, y: old_yager_residual_cell(p, b, a, x, y))


PHIS = (identity_bijection(), power_bijection(0.5), power_bijection(2.0),
        power_bijection(3.0))


@pytest.mark.parametrize("phi", PHIS, ids=[phi.label for phi in PHIS])
def test_intersection_cell_is_the_old_expression(phi):
    check_cell(build_intersection_member(phi),
               lambda a, b, x, y: old_intersection_cell(phi, a, b, x, y))


@pytest.mark.parametrize("phi", PHIS, ids=[phi.label for phi in PHIS])
def test_intersection_cell_at_exactly_one(phi):
    # 1 - a + b == 1 where a == b: the value is inverse(1) at the
    # precision of a, so an mpf still goes through inverse
    cell = build_intersection_member(phi).parts[2]
    for a in (0.0, 0.25, 0.5, 1.0):  # dyadic: 1 - a + a is exactly 1
        assert identical(cell(a, a, a, a), old_intersection_cell(phi, a, a, a, a))
        assert identical(cell(a, a, a, a), 1.0)
    with mpmath.workdps(CHAIN_DPS):
        for a in map(mpmath.mpf, (0.0, 0.25, 0.5, 1.0)):
            got = cell(a, a, a, a)
            assert identical(got, old_intersection_cell(phi, a, a, a, a))
            assert is_mpf(got) and got == 1
        # above 1, a double, as the old expression gave: inverse(1.0)
        a, b = mpmath.mpf(0.25), mpmath.mpf(0.5)
        assert identical(cell(a, b, 0.5, 0.7), old_intersection_cell(phi, a, b, 0.5, 0.7))
        assert identical(cell(a, b, 0.5, 0.7), 1.0)


# The I^g enclosure.

# x^2 with math.sqrt as inverse, which raises below 0: the sum's floor at 0 shows
SQUARE = Generator(INCREASING, lambda x: x * x, math.sqrt, "square")
IG_GENERATORS = [*map(power_gp, POWER_P), neg_log(), piecewise_f(), TABLE_G, SQUARE]
# a and y on both sides of each clamp: below 0 and above 1 once moved by
# ARG_SLACK, and at 0 and 1 themselves
EDGES = (0.0, -0.0, ARG_SLACK / 4, 2 * ARG_SLACK, 0.25, 0.5, 0.75,
         1.0 - 2 * ARG_SLACK, 1.0 - ARG_SLACK / 4, 1.0)


@pytest.mark.parametrize("g", IG_GENERATORS, ids=[g.label for g in IG_GENERATORS])
def test_ig_end_is_the_old_expression(g):
    for a in EDGES + (NAN,):
        for y in EDGES + (NAN,):
            for side in (-1.0, 1.0):
                got = _ig_end(g.fn, g.inverse, a, y, side)
                assert identical(got, old_ig_end(g, a, y, side)), (a, y, side)


@pytest.mark.parametrize("g", IG_GENERATORS, ids=[g.label for g in IG_GENERATORS])
def test_ig_bounds_is_the_old_expression(g):
    bounds = ig_candidate(g).bounds
    for x, y in PAIRS[::7] + [(x, y) for x in EDGES for y in EDGES]:
        for y_lo, y_hi in ((y, y), (0.5 * y, y)):
            got, want = bounds(x, y_lo, y_hi), old_ig_bounds(g, x, y_lo, y_hi)
            assert all(map(identical, got, want)), (x, y_lo, y_hi)
