"""JSON config parsing for generators, connectives, negations, bijections,
and implications.

A spec is a dict with a ``kind`` discriminator, given inline on the CLI
or loaded from a file.  Examples::

    {"kind": "yager_f", "p": 2.0}
    {"kind": "dual", "of": {"kind": "basic", "name": "min"}}
    {"kind": "ign", "g": {"kind": "power_gp", "p": 2},
                    "N": {"kind": "yager_np", "p": 2}}
    {"kind": "phi_conjugate", "base": "lukasiewicz",
                              "phi": {"kind": "power", "a": 2}}
"""

from __future__ import annotations

import csv
import functools
import json
import math
from pathlib import Path

from . import bijections, connectives, generators, implications
from .classes import build_intersection_member
from .connectives import BinaryConnective, Negation
from .implications import ImplicationCandidate


class SpecError(ValueError):
    """Malformed or unknown operator spec."""


def load_spec(arg: str) -> dict:
    """Inline JSON, or a path to a JSON file."""
    text = arg
    p = Path(arg)
    if not arg.lstrip().startswith("{") and p.is_file():
        text = p.read_text()
    try:
        d = json.loads(text)
    except json.JSONDecodeError as e:
        raise SpecError(f"spec is not valid JSON: {e}") from None
    if not isinstance(d, dict) or "kind" not in d:
        raise SpecError("spec must be a JSON object with a 'kind' field")
    return d


def _kind(d: dict) -> str:
    try:
        return d["kind"]
    except (TypeError, KeyError):
        raise SpecError("spec must be a JSON object with a 'kind' field") from None


def _spec_errors(parse):
    """Report what a malformed spec raises while it is built as a SpecError:
    a missing field, a bad value, a generator of the wrong direction."""

    @functools.wraps(parse)
    def checked(d):
        try:
            return parse(d)
        except SpecError:
            raise
        except KeyError as e:
            raise SpecError(f"{_kind(d)!r} spec needs a {e.args[0]!r} field") from None
        except (ValueError, TypeError, OSError) as e:
            raise SpecError(f"{_kind(d)!r} spec: {e}") from None

    return checked


@_spec_errors
def parse_generator(d: dict) -> generators.Generator:
    kind = _kind(d)
    if kind == "yager_f":
        return generators.yager_f(float(d["p"]))
    if kind == "power_gp":
        return generators.power_gp(float(d["p"]))
    if kind == "neg_log":
        return generators.neg_log()
    if kind == "piecewise_f":
        return generators.piecewise_f()
    if kind == "table":
        return generators.table_generator(d["direction"], d["points"])
    raise SpecError(f"unknown generator kind {kind!r}")


@_spec_errors
def parse_negation(d: dict) -> Negation:
    kind = _kind(d)
    if kind == "standard":
        return connectives.standard_negation()
    if kind == "yager_np":
        return connectives.yager_negation(float(d["p"]))
    if kind == "phi":
        phi = parse_bijection(d["phi"])
        return connectives.phi_negation(phi.forward, phi.inverse, phi.label)
    if kind == "dual":
        return connectives.dual_negation(parse_negation(d["of"]))
    if kind == "table":
        return connectives.table_negation(d["points"])
    raise SpecError(f"unknown negation kind {kind!r}")


@_spec_errors
def parse_bijection(d: dict) -> bijections.Bijection:
    kind = _kind(d)
    if kind == "identity":
        return bijections.identity_bijection()
    if kind == "power":
        return bijections.power_bijection(float(d["a"]))
    raise SpecError(f"unknown bijection kind {kind!r}")


def _parse_p(v) -> float:
    if v in ("inf", "+inf", "infinity"):
        return math.inf
    return float(v)


@_spec_errors
def parse_connective(d: dict) -> BinaryConnective:
    kind = _kind(d)
    if kind == "basic":
        return connectives.basic(d["name"])
    if kind == "yager_tnorm":
        return connectives.yager_connective(_parse_p(d["p"]))
    if kind == "mean":
        return connectives.mean_connective()
    if kind == "dual":
        return connectives.dual_of(parse_connective(d["of"]))
    if kind == "generated_tnorm":
        return connectives.generated_tnorm_connective(parse_generator(d["f"]))
    if kind == "generated_tconorm":
        return connectives.generated_tconorm_connective(parse_generator(d["g"]))
    if kind == "table":
        if "path" in d:
            return surface_table_connective(d["path"])
        return connectives.table_connective(d["values"])
    raise SpecError(f"unknown connective kind {kind!r}")


@_spec_errors
def parse_implication(d: dict) -> ImplicationCandidate:
    kind = _kind(d)
    if kind == "yager_residual":
        return implications.yager_residual_candidate(float(d["p"]))
    if kind == "lukasiewicz":
        return implications.lukasiewicz_candidate()
    if kind == "mean_residual":
        return implications.mean_residual_candidate()
    if kind == "piecewise_f":
        return implications.piecewise_f_candidate()
    if kind == "ig":
        return implications.ig_candidate(parse_generator(d["g"]))
    if kind == "ign":
        return implications.ign_candidate(
            parse_generator(d["g"]), parse_negation(d["N"])
        )
    if kind == "sn":
        return implications.sn_candidate(
            parse_connective(d["S"]), parse_negation(d["N"])
        )
    if kind == "residual":
        return implications.residual_candidate(parse_connective(d["of"]))
    if kind == "phi_conjugate":
        base = d.get("base", "lukasiewicz")
        if base != "lukasiewicz":
            raise SpecError("only the lukasiewicz base is supported")
        return build_intersection_member(parse_bijection(d["phi"]))
    raise SpecError(f"unknown implication kind {kind!r}")


_IMPLICATION_KINDS = {
    "yager_residual", "lukasiewicz", "mean_residual", "piecewise_f",
    "ig", "ign", "sn", "residual", "phi_conjugate",
}


def parse_binary(d: dict):
    """A connective or an implication, whichever the kind names."""
    if _kind(d) in _IMPLICATION_KINDS:
        return parse_implication(d)
    return parse_connective(d)


def surface_table_connective(path: str) -> BinaryConnective:
    """Re-read a written surface CSV as a bilinear table connective."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:3] != ["x", "y", "value"]:
            raise SpecError(f"{path}: expected header x,y,value")
        for x, y, v in reader:
            rows.append((float(x), float(y), float(v)))
    n = round(math.sqrt(len(rows)))
    if n * n != len(rows) or n < 2:
        raise SpecError(f"{path}: not a square surface grid")
    values = [[0.0] * n for _ in range(n)]
    for x, y, v in rows:
        i = round(x * (n - 1))
        j = round(y * (n - 1))
        values[i][j] = v
    return connectives.table_connective(values, label=f"table[{path}]")
