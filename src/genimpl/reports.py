"""Verdict reports and deterministic sample sets.

Every check in this package works on a finite, reproducible sample set
and returns a :class:`PropertyReport`.  A ``fails`` verdict always
carries a concrete witness point; a passing verdict is only ever
"holds on the samples", never a proof.
"""

from __future__ import annotations

import json
import math
import random
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field
from itertools import product


HOLDS = "holds-on-samples"
FAILS = "fails"

# most pairs or triples a plan may sample: a grid of up to 1,023 with the
# default 1,000 random pairs
MAX_SAMPLES = 2**20


@dataclass(frozen=True)
class SampleSpec:
    """Deterministic sampling plan: uniform grid plus seeded random points."""

    grid_n: int = 101
    random_count: int = 1000
    seed: int = 42
    tolerance: float = 1e-9

    # triple checks (EP, associativity) use a coarser grid so the
    # triple count stays at desk scale
    triple_grid_n: int = 21
    triple_random_count: int = 2000

    def __post_init__(self):
        if self.grid_n < 2:
            raise ValueError("grid_n must be >= 2")
        if self.triple_grid_n < 2:
            raise ValueError("triple_grid_n must be >= 2")
        if min(self.random_count, self.triple_random_count) < 0:
            raise ValueError("random counts must be >= 0")
        if not 0 < self.tolerance < math.inf:  # NaN would pass every check
            raise ValueError("tolerance must be positive and finite")
        pairs = self.grid_n**2 + self.random_count
        triples = self.triple_grid_n**3 + self.triple_random_count
        if max(pairs, triples) > MAX_SAMPLES:
            raise ValueError(f"sample plan above {MAX_SAMPLES} pairs or triples")

    def grid(self) -> list[float]:
        n = self.grid_n
        return [i / (n - 1) for i in range(n)]

    def points_1d(self) -> list[float]:
        rng = random.Random(self.seed)
        return self.grid() + [rng.random() for _ in range(self.random_count)]

    def pairs(self) -> list[tuple[float, float]]:
        """The sample pairs: the grid pairs x-major, then ``random_pairs()``."""
        return [*product(self.grid(), repeat=2), *self.random_pairs()]

    def random_pairs(self) -> list[tuple[float, float]]:
        """The seeded tail of ``pairs()``."""
        rng = random.Random(self.seed)
        return [(rng.random(), rng.random()) for _ in range(self.random_count)]

    def triple_grid(self) -> list[float]:
        """The coordinates of the grid triples: the grid at triple_grid_n."""
        return SampleSpec(grid_n=self.triple_grid_n).grid()

    def random_triples(self) -> Iterator[tuple[float, float, float]]:
        """The seeded tail of ``triples()``, streamed."""
        rng = random.Random(self.seed)
        return ((rng.random(), rng.random(), rng.random())
                for _ in range(self.triple_random_count))

    def triples(self) -> list[tuple[float, float, float]]:
        """The sample triples: the triple_grid_n^3 grid triples x-major over
        ``triple_grid()``, then ``random_triples()``."""
        return [*product(self.triple_grid(), repeat=3), *self.random_triples()]

    def as_dict(self) -> dict:
        """Every field, so ``SampleSpec(**spec.as_dict())`` replays the plan."""
        return asdict(self)


@dataclass
class PropertyReport:
    """Outcome of one property check on one sample set."""

    property: str
    verdict: str
    tolerance: float
    sample_spec: dict = field(default_factory=dict)
    witness: dict | None = None
    max_discrepancy: float = 0.0
    details: dict | None = None

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS

    def as_dict(self) -> dict:
        out = {
            "property": self.property,
            "verdict": self.verdict,
            "witness": self.witness,
            "sample_spec": self.sample_spec,
            "tolerance": self.tolerance,
            "max_discrepancy": self.max_discrepancy,
        }
        if self.details is not None:
            out["details"] = self.details
        return out

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=False)


def passing(prop: str, spec: SampleSpec, max_disc: float = 0.0) -> PropertyReport:
    return PropertyReport(prop, HOLDS, spec.tolerance, spec.as_dict(), max_discrepancy=max_disc)


def failing(
    prop: str, spec: SampleSpec, witness: dict, max_disc: float
) -> PropertyReport:
    return PropertyReport(prop, FAILS, spec.tolerance, spec.as_dict(), witness, max_disc)
