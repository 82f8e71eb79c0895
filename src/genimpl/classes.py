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

from .bijections import Bijection
from .implications import ImplicationCandidate, natural_negation
from .properties import (
    PropertyReport,
    SampleSpec,
    check_negation_axioms,
    check_property,
    check_second_arg_monotone,
    failing,
    passing,
    probe_continuity,
    refine_jump,
)
from .generators import clamp01

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


def sn_probe(i: ImplicationCandidate, s: SampleSpec | None = None) -> ClassProbeResult:
    s = s or SampleSpec()
    n_i = natural_negation(i)
    verdicts = [
        check_second_arg_monotone(i, s),
        check_property(i, "EP", s),
        check_negation_axioms(n_i, s),
        probe_continuity(n_i, s),
    ]
    return ClassProbeResult("SN", verdicts)


def r_probe(i: ImplicationCandidate, s: SampleSpec | None = None) -> ClassProbeResult:
    s = s or SampleSpec()
    verdicts = [
        check_second_arg_monotone(i, s),
        check_property(i, "OP", s),
        check_property(i, "EP", s),
        _right_continuity(i, s),
    ]
    return ClassProbeResult("R-leftcont", verdicts)


def conjugate_lk_probe(
    i: ImplicationCandidate, s: SampleSpec | None = None
) -> ClassProbeResult:
    s = s or SampleSpec()
    verdicts = [
        _surface_continuity(i, s),
        check_property(i, "OP", s),
        check_property(i, "EP", s),
    ]
    return ClassProbeResult("phi-conjugate-LK", verdicts)


def _right_continuity(i: ImplicationCandidate, s: SampleSpec) -> PropertyReport:
    """Forward differences with shrinking offsets; a difference that stays
    above RC_JUMP without shrinking marks a jump from the right."""
    g = s.grid()
    for x in g:
        for y in g:
            if y + RC_OFFSETS[0] > 1.0:
                continue
            base = i(x, y)
            diffs = [abs(i(x, y + h) - base) for h in RC_OFFSETS]
            if diffs[-1] > RC_JUMP and diffs[-1] > 0.5 * diffs[0]:
                return failing(
                    "right-continuity", s,
                    {"x": x, "y": y, "diffs": diffs},
                    diffs[-1],
                )
    return passing("right-continuity", s)


def _surface_continuity(i: ImplicationCandidate, s: SampleSpec) -> PropertyReport:
    """Grid-jump heuristic along both axes; offending intervals are refined
    locally so steep continuous slopes are not mistaken for jumps."""
    g = s.grid()
    threshold = 5.0 / s.grid_n
    vals = [[i(x, y) for y in g] for x in g]
    for a in range(len(g)):
        for b in range(1, len(g)):
            dx = abs(vals[b][a] - vals[b - 1][a])
            if dx > threshold:
                y = g[a]
                jump, lo, hi = refine_jump(
                    lambda t: i(t, y), g[b - 1], g[b]
                )
                if jump > threshold:
                    return failing(
                        "surface-continuity", s,
                        {"x1": lo, "x2": hi, "y": y,
                         "value1": i(lo, y), "value2": i(hi, y)},
                        jump,
                    )
            dy = abs(vals[a][b] - vals[a][b - 1])
            if dy > threshold:
                x = g[a]
                jump, lo, hi = refine_jump(
                    lambda t: i(x, t), g[b - 1], g[b]
                )
                if jump > threshold:
                    return failing(
                        "surface-continuity", s,
                        {"x": x, "y1": lo, "y2": hi,
                         "value1": i(x, lo), "value2": i(x, hi)},
                        jump,
                    )
    return passing("surface-continuity", s)


def build_intersection_member(phi: Bijection) -> ImplicationCandidate:
    """I(x,y) = phi^-1(min(1 - phi(x) + phi(y), 1)): the conjugate of the
    Lukasiewicz implication, with natural negation phi^-1(1 - phi(x))."""

    def fn(x: float, y: float) -> float:
        return clamp01(
            phi.inverse(min(1.0 - phi.forward(x) + phi.forward(y), 1.0))
        )

    return ImplicationCandidate(fn, f"I_phi[{phi.label}]")


def check_self_dual_phi(
    phi: Bijection, s: SampleSpec | None = None
) -> PropertyReport:
    """phi(x) + phi(1-x) = 1 on samples: the condition under which the
    conjugate's natural negation collapses to the standard negation."""
    s = s or SampleSpec()
    worst = 0.0
    for x in s.points_1d():
        d = abs(phi.forward(x) + phi.forward(1.0 - x) - 1.0)
        if d > s.tolerance:
            return failing(
                "phi-self-dual", s,
                {"x": x, "phi_x": phi.forward(x),
                 "phi_1mx": phi.forward(1.0 - x)},
                d,
            )
        worst = max(worst, d)
    return passing("phi-self-dual", s, worst)
