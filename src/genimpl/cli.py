"""Command-line front end.

Subcommands::

    eval SPEC X Y            evaluate a connective or implication
    residual SPEC X Y        residual of an operator: the closed form a t-norm
                             carries, else bisection
    verify SPEC PROP [...]   check properties, JSON reports, exit 1 on failure
    surface SPEC -o FILE     write an n x n surface grid as CSV
    compare SPEC SPEC        max |F - G| over the sample set
    classify SPEC            class-membership probes, JSON per class
    counterexample SPEC LAW  search for an associativity / EP witness

SPEC is inline JSON or a path to a JSON file; see `specs` for the schema.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import classes, properties
from .generators import check_unit
from .implications import residual_candidate
from .reports import SampleSpec
from .specs import OPERATORS, SpecError, load_spec, parse_binary, parse_negation

SPEC_HELP = "operator spec, inline JSON or a JSON file; kinds: " + ", ".join(OPERATORS)

# class name -> the name of its probe in `classes`, looked up at call time,
# so a wrapper put on a probe after import (a tracer's) is the one that runs
CLASS_PROBES = {"sn": "sn_probe", "r": "r_probe", "lk": "conjugate_lk_probe"}


def _sample_spec(args) -> SampleSpec:
    return SampleSpec(grid_n=args.grid, seed=args.seed, tolerance=args.tol)


def _json_flag(sub):
    sub.add_argument("--json", action="store_true", help="JSON output")


def _common(sub):
    """The sample-plan flags, for the subcommands that run a check."""
    plan = SampleSpec()
    sub.add_argument("--grid", type=int, default=plan.grid_n, help="grid resolution")
    sub.add_argument("--seed", type=int, default=plan.seed, help="random sample seed")
    sub.add_argument("--tol", type=float, default=plan.tolerance, help="tolerance")
    _json_flag(sub)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genimpl",
        description="Generated fuzzy connectives, residuals, and property checks",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for name, help_ in (("eval", "evaluate an operator at a point"),
                        ("residual", "residual R[op] of an operator: in "
                                     "closed form for a basic, Yager or "
                                     "generated t-norm, else bisection")):
        p = subs.add_parser(name, help=help_)
        p.add_argument("spec", help=SPEC_HELP)
        p.add_argument("x", type=float)
        p.add_argument("y", type=float)
        _json_flag(p)

    p = subs.add_parser("verify", help="check properties of an operator")
    p.add_argument("spec", help=SPEC_HELP)
    p.add_argument(
        "properties",
        nargs="+",
        help="NP EP IP OP CP:<negation-json> axioms tnorm",
    )
    _common(p)

    p = subs.add_parser("surface", help="export a surface grid as CSV")
    p.add_argument("spec", help=SPEC_HELP)
    p.add_argument("-n", type=int, default=101, help="surface resolution")
    p.add_argument("-o", "--output", required=True)

    p = subs.add_parser("compare", help="max |F - G| over the samples")
    p.add_argument("spec1", help=SPEC_HELP)
    p.add_argument("spec2", help=SPEC_HELP)
    _common(p)

    p = subs.add_parser("classify", help="class-membership probes")
    p.add_argument("spec", help=SPEC_HELP)
    p.add_argument(
        "--classes",
        default=",".join(CLASS_PROBES),
        help=f"comma list from {','.join(CLASS_PROBES)} (default all)",
    )
    _common(p)

    p = subs.add_parser("counterexample", help="search for a law violation")
    p.add_argument("spec", help=SPEC_HELP)
    p.add_argument("law", choices=["associativity", "EP"])
    _common(p)

    return parser


def cmd_eval(args) -> int:
    """``eval``, and ``residual``, which evaluates R[op]."""
    # checked here, once per command: the operators' own __call__ sits
    # inside the law-check loops and stays unchecked
    check_unit(args.x, "x")
    check_unit(args.y, "y")
    op = parse_binary(load_spec(args.spec))
    if args.command == "residual":
        op = residual_candidate(op)
    v = op(args.x, args.y)
    if args.json:
        print(json.dumps({"label": op.label, "value": v}))
    else:
        print(f"{v:.17g}")
    return 0


def _law_check(token: str):
    """The check a ``verify`` token names, as a function of (op, s); a bad
    law name or negation spec raises here, before any check runs."""
    if token == "axioms":
        return properties.check_implication_axioms
    if token == "tnorm":
        return properties.check_tnorm_axioms
    prop, _, neg_spec = token.partition(":")
    neg = parse_negation(load_spec(neg_spec)) if neg_spec else None
    properties.validate_law(prop, neg)
    return lambda op, s: properties.check_property(op, prop, s, neg)


def cmd_verify(args) -> int:
    op = parse_binary(load_spec(args.spec))
    s = _sample_spec(args)
    checks = [_law_check(token) for token in args.properties]
    reports = [check(op, s) for check in checks]
    print(json.dumps([r.as_dict() for r in reports], indent=2))
    return 0 if all(r.holds for r in reports) else 1


def cmd_surface(args) -> int:
    op = parse_binary(load_spec(args.spec))
    g = SampleSpec(grid_n=args.n).grid()
    # every value first, so an error while evaluating leaves no file behind
    rows = [f"{x:.17g},{y:.17g},{v:.17g}\n"
            for x, row in zip(g, op.table(g)) for y, v in zip(g, row)]
    try:
        with open(args.output, "w", newline="") as fh:
            fh.write("x,y,value\n")
            fh.writelines(rows)
    except OSError as e:
        raise SpecError(f"cannot write {args.output}: {e}") from None
    return 0


def cmd_compare(args) -> int:
    f = parse_binary(load_spec(args.spec1))
    g = parse_binary(load_spec(args.spec2))
    s = _sample_spec(args)
    report = properties.compare_surfaces(f, g, s)
    print(report.to_json(indent=2))
    return 0


def cmd_classify(args) -> int:
    i = parse_binary(load_spec(args.spec))
    s = _sample_spec(args)
    names = [name.strip().lower() for name in args.classes.split(",")]
    unknown = [name for name in names if name not in CLASS_PROBES]
    if unknown:  # judged before the first probe runs
        raise SpecError(f"unknown class {unknown[0]!r}")
    results = [getattr(classes, CLASS_PROBES[name])(i, s) for name in names]
    print(json.dumps([r.as_dict() for r in results], indent=2))
    return 0


def cmd_counterexample(args) -> int:
    op = parse_binary(load_spec(args.spec))
    s = _sample_spec(args)
    if args.law == "associativity":
        report = properties.find_associativity_counterexample(op, s)
    else:
        report = properties.check_property(op, "EP", s)
    print(report.to_json(indent=2))
    return 0 if report.holds else 1


_COMMANDS = {
    "eval": cmd_eval,
    "residual": cmd_eval,
    "verify": cmd_verify,
    "surface": cmd_surface,
    "compare": cmd_compare,
    "classify": cmd_classify,
    "counterexample": cmd_counterexample,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return status
    except (SpecError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader left early: send what is still buffered to devnull
        # (stdout captured in-process has no file descriptor to point there)
        with contextlib.suppress(OSError, ValueError), open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
