"""Behavioral probes for implication-class membership.

Sampled checks can exclude a candidate from a class (with a witness) but
can never certify membership, so a clean probe reports
"consistent-with-membership", not "member".

Probed classes:

* SN: (S,N)-implications — I2, EP, and the natural negation must be a
  continuous fuzzy negation.
* R-leftcont: residuals of left-continuous t-norms — I2, OP, EP, and
  right-continuity of I(x, .).
* phi-conjugate-LK: conjugates of the Lukasiewicz implication —
  continuity of the surface plus OP and EP.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .implications import ImplicationCandidate, natural_negation
from .properties import (
    check_negation_axioms,
    check_property,
    check_second_arg_monotone,
    probe_continuity,
    refine_jump,
)
from .reports import PropertyReport, SampleSpec, failing, passing

CONSISTENT = "consistent-with-membership"
EXCLUDED = "excluded"

# right-continuity probe offsets; three decades suffice to separate a
# genuine jump from a steep but continuous slope
RC_OFFSETS = (1e-3, 1e-5, 1e-7)
RC_JUMP = 1e-2


@dataclass
class ClassProbeResult:
    class_id: str
    verdicts: list[PropertyReport] = field(default_factory=list)

    @property
    def overall(self) -> str:
        return CONSISTENT if all(r.holds for r in self.verdicts) else EXCLUDED

    @property
    def witness(self) -> dict | None:
        for r in self.verdicts:
            if not r.holds:
                return r.witness
        return None

    def as_dict(self) -> dict:
        return {
            "class_id": self.class_id,
            "overall": self.overall,
            "verdicts": [r.as_dict() for r in self.verdicts],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.as_dict(), indent=indent)


def sn_probe(i: ImplicationCandidate, s: SampleSpec = SampleSpec()) -> ClassProbeResult:
    n_i = natural_negation(i)
    verdicts = [
        check_second_arg_monotone(i, s),
        check_property(i, "EP", s),
        check_negation_axioms(n_i, s),
        probe_continuity(n_i, s),
    ]
    return ClassProbeResult("SN", verdicts)


def r_probe(i: ImplicationCandidate, s: SampleSpec = SampleSpec()) -> ClassProbeResult:
    verdicts = [
        check_second_arg_monotone(i, s),
        check_property(i, "OP", s),
        check_property(i, "EP", s),
        _right_continuity(i, s),
    ]
    return ClassProbeResult("R-leftcont", verdicts)


def conjugate_lk_probe(
    i: ImplicationCandidate, s: SampleSpec = SampleSpec()
) -> ClassProbeResult:
    verdicts = [
        _surface_continuity(i, s),
        check_property(i, "OP", s),
        check_property(i, "EP", s),
    ]
    return ClassProbeResult("phi-conjugate-LK", verdicts)


def _right_continuity(i: ImplicationCandidate, s: SampleSpec) -> PropertyReport:
    """Forward differences with shrinking offsets; a difference that stays
    above RC_JUMP without shrinking marks a jump from the right.  Each grid
    line i(x, .) is one sweep of ``i.lines`` over y, y + 1e-3 and y + 1e-7,
    whose values are the operator's: the decision reads the widest and the
    narrowest difference.  A failing witness lists all three, each
    evaluated on its own."""
    g = s.grid()
    ys = [y for y in g if y + RC_OFFSETS[0] <= 1.0]
    points = [t for y in ys for t in (y, y + RC_OFFSETS[0], y + RC_OFFSETS[-1])]
    for x, values in i.lines(points, g):
        # one lazy iterator zipped with itself: the values at y, y + 1e-3
        # and y + 1e-7
        for y, base, wide, narrow in zip(ys, values, values, values):
            d = abs(narrow - base)
            if d > RC_JUMP and d > 0.5 * abs(wide - base):
                diffs = [abs(i(x, y + h) - base) for h in RC_OFFSETS]
                return failing(
                    "right-continuity", s,
                    {"x": x, "y": y, "diffs": diffs},
                    diffs[-1],
                )
    return passing("right-continuity", s)


def _surface_continuity(i: ImplicationCandidate, s: SampleSpec) -> PropertyReport:
    """Grid-jump heuristic along both axes, the step in x before the step
    in y at each grid cell; offending intervals are refined locally so
    steep continuous slopes are not mistaken for jumps."""
    g = s.grid()
    threshold = 5.0 / s.grid_n
    rows = i.table(g)  # rows[a][b] = i(g[a], g[b]) = columns[b][a]
    columns = list(zip(*rows))
    line = [0.0] * (2 * len(g))
    for a, c in enumerate(g):
        # line[2b] = i(g[b], c), line[2b + 1] = i(c, g[b]): entries two
        # apart are a step in x (k even) or in y (k odd) from g[b - 1] to g[b]
        line[::2] = columns[a]
        line[1::2] = rows[a]
        for k in range(2, len(line)):
            if abs(line[k] - line[k - 2]) > threshold:
                f = (lambda t: i(c, t)) if k % 2 else (lambda t: i(t, c))
                jump, lo, hi = refine_jump(f, g[k // 2 - 1], g[k // 2])
                if jump > threshold:
                    w = {"x": c, "y1": lo, "y2": hi} if k % 2 else {"x1": lo, "x2": hi, "y": c}
                    return failing("surface-continuity", s,
                                   {**w, "value1": f(lo), "value2": f(hi)}, jump)
    return passing("surface-continuity", s)
