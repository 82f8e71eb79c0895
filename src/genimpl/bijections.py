"""Increasing bijections of [0,1] used for conjugating implications.

Bijections are supplied as (forward, inverse) closed-form pairs: the
conjugacy identities need exact inverses, not numeric inversion.
"""

from __future__ import annotations

import math
from typing import Callable

from .generators import Record


class Bijection(Record):
    __slots__ = ("forward", "inverse", "label")

    def __init__(self, forward: Callable[[float], float],
                 inverse: Callable[[float], float], label: str = "phi"):
        self._fill(forward, inverse, label)


def identity_bijection() -> Bijection:
    return Bijection(lambda x: x, lambda x: x, "identity")


def power_bijection(a: float) -> Bijection:
    """phi(x) = x^a for a > 0; inverse x^(1/a)."""
    if not 0 < a < math.inf:
        raise ValueError("exponent must be finite and positive")
    inv_a = 1.0 / a
    return Bijection(lambda x: x ** a, lambda x: x ** inv_a, f"power(a={a:g})")
