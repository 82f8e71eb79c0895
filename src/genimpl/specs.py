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

import json
import math
import os

from . import bijections, connectives, generators, implications
from .connectives import BinaryConnective


class SpecError(ValueError):
    """Malformed or unknown operator spec."""


def load_spec(arg: str):
    """Inline JSON, or a path to a JSON file; the parser checks its shape.  No
    field takes a boolean, which float() would read as 1 or 0: one is refused."""
    text = arg
    try:
        # os.path.isfile is False, not OSError, for a name too long for a file
        if not arg.lstrip().startswith("{") and os.path.isfile(arg):
            with open(arg) as fh:
                text = fh.read()
        spec = json.loads(text)
    except OSError as e:
        raise SpecError(f"cannot read spec file: {e}") from None
    except json.JSONDecodeError as e:
        raise SpecError(f"spec is not valid JSON: {e}") from None
    except RecursionError:  # json's parser recurses once per level
        raise SpecError("spec nests too deeply to parse") from None
    values = [spec]  # walked without recursion: the JSON may nest deeply
    for v in values:
        if isinstance(v, bool):
            raise SpecError(f"spec holds {json.dumps(v)}; no field takes a boolean")
        values.extend(v.values() if isinstance(v, dict) else v if isinstance(v, list) else ())
    return spec


def _kind(d: dict) -> str:
    try:
        return d["kind"]
    except (TypeError, KeyError):
        raise SpecError("spec must be a JSON object with a 'kind' field") from None


def _parser(role: str, builders: dict):
    """The parser of one role: look the spec's kind up in ``builders`` and
    report what a malformed spec raises while it is built (a missing field,
    a bad value, a generator of the wrong direction) as a SpecError."""

    def parse(d: dict):
        kind = _kind(d)
        if not isinstance(kind, str) or kind not in builders:
            raise SpecError(
                f"unknown {role} kind {kind!r}; known kinds: {', '.join(builders)}"
            )
        try:
            return builders[kind](d)
        except SpecError:
            raise
        except KeyError as e:
            raise SpecError(f"{kind!r} spec needs a {e.args[0]!r} field") from None
        except (ValueError, TypeError, OSError) as e:
            raise SpecError(f"{kind!r} spec: {e}") from None

    return parse


def _phi_conjugate(d: dict) -> BinaryConnective:
    if d.get("base", "lukasiewicz") != "lukasiewicz":
        raise SpecError("only the lukasiewicz base is supported")
    return implications.build_intersection_member(parse_bijection(d["phi"]))


def _table_connective(d: dict) -> BinaryConnective:
    if "path" in d:
        return surface_table_connective(d["path"])
    return connectives.table_connective(d["values"])


# One kind -> builder table per role; a builder takes the whole spec dict.
# Connectives and implication candidates are the same operator type, so
# they share one table.
GENERATORS = {
    "yager_f": lambda d: generators.yager_f(float(d["p"])),
    "power_gp": lambda d: generators.power_gp(float(d["p"])),
    "neg_log": lambda d: generators.neg_log(),
    "piecewise_f": lambda d: generators.piecewise_f(),
    "table": lambda d: generators.table_generator(d["direction"], d["points"]),
}

NEGATIONS = {
    "standard": lambda d: connectives.standard_negation(),
    "yager_np": lambda d: connectives.yager_negation(float(d["p"])),
    "phi": lambda d: connectives.phi_negation(parse_bijection(d["phi"])),
    "dual": lambda d: connectives.dual_negation(parse_negation(d["of"])),
    "table": lambda d: connectives.table_negation(d["points"]),
}

BIJECTIONS = {
    "identity": lambda d: bijections.identity_bijection(),
    "power": lambda d: bijections.power_bijection(float(d["a"])),
}

OPERATORS = {
    # connectives
    "basic": lambda d: connectives.basic(d["name"]),
    "yager_tnorm": lambda d: connectives.yager_connective(float(d["p"])),
    "mean": lambda d: connectives.mean_connective(),
    "dual": lambda d: connectives.dual_of(parse_binary(d["of"])),
    "generated_tnorm": lambda d: connectives.generated_tnorm_connective(
        parse_generator(d["f"])),
    "generated_tconorm": lambda d: connectives.generated_tconorm_connective(
        parse_generator(d["g"])),
    "table": _table_connective,
    # implication candidates
    "yager_residual": lambda d: connectives.yager_residual_candidate(float(d["p"])),
    "lukasiewicz": lambda d: implications.residual_candidate(connectives.basic("lukasiewicz")),
    "mean_residual": lambda d: implications.mean_residual_candidate(),
    "piecewise_f": lambda d: implications.piecewise_f_candidate(),
    "ig": lambda d: implications.ig_candidate(parse_generator(d["g"])),
    "ign": lambda d: implications.ign_candidate(
        parse_generator(d["g"]), parse_negation(d["N"])),
    "sn": lambda d: implications.sn_candidate(
        parse_binary(d["S"]), parse_negation(d["N"])),
    "residual": lambda d: implications.residual_candidate(parse_binary(d["of"])),
    "phi_conjugate": _phi_conjugate,
}

parse_generator = _parser("generator", GENERATORS)
parse_negation = _parser("negation", NEGATIONS)
parse_bijection = _parser("bijection", BIJECTIONS)
# a connective or an implication candidate, whichever the kind names
parse_binary = parse_connective = parse_implication = _parser("operator", OPERATORS)


def surface_table_connective(path: str) -> BinaryConnective:
    """Re-read a surface CSV as a bilinear table connective.  The file holds
    the header x,y,value, then one row per point of the n-point sample grid
    squared (n >= 2), each point once, in any order.  ``genimpl surface``
    writes .17g, so each x and y reads back as the grid's own double."""
    import csv  # only a spec that reads a surface file needs these

    from .reports import SampleSpec

    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = list(reader)
    except csv.Error as e:
        raise SpecError(f"{path}: {e}") from None
    if header != ["x", "y", "value"]:
        raise SpecError(f"{path}: expected the header x,y,value")
    n = math.isqrt(len(rows))
    if n < 2 or n * n != len(rows):
        raise SpecError(f"{path}: expected n x n rows with n >= 2, found {len(rows)}")
    index = {t: k for k, t in enumerate(SampleSpec(grid_n=n).grid())}
    values = [[None] * n for _ in range(n)]
    for line, row in enumerate(rows, 2):
        try:
            x, y, v = row
            i, j, v = index[float(x)], index[float(y)], float(v)
        except (ValueError, KeyError):
            raise SpecError(f"{path}, line {line}: not x,y,value at a point "
                            f"of the {n}-point grid") from None
        if values[i][j] is not None:
            raise SpecError(f"{path}, line {line}: the point ({x}, {y}) repeats")
        values[i][j] = v
    return connectives.table_connective(values, label=f"table[{path}]")
