"""Increasing bijections of [0,1] used for conjugating implications.

Bijections are supplied as (forward, inverse) closed-form pairs: the
conjugacy identities need exact inverses, not numeric inversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Bijection:
    forward: Callable[[float], float]
    inverse: Callable[[float], float]
    label: str = "phi"


def identity_bijection() -> Bijection:
    return Bijection(lambda x: x, lambda x: x, "identity")


def power_bijection(a: float) -> Bijection:
    """phi(x) = x^a for a > 0; inverse x^(1/a)."""
    if not 0 < a < math.inf:
        raise ValueError("exponent must be finite and positive")
    return Bijection(
        lambda x: x ** a, lambda x: x ** (1.0 / a), f"power(a={a:g})"
    )
