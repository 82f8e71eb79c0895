"""Command-line front end.

Subcommands::

    eval SPEC X Y            evaluate a connective or implication
    residual SPEC X Y        numeric residual of an operator
    verify SPEC PROP [...]   check properties, JSON reports, exit 1 on failure
    surface SPEC -o FILE     write an n x n surface grid as CSV
    compare SPEC SPEC        max |F - G| over the sample set
    classify SPEC            class-membership probes, JSON per class
    counterexample SPEC LAW  search for an associativity / EP witness

SPEC is inline JSON or a path to a JSON file; see `specs` for the schema.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import classes, properties
from .generators import check_unit
from .implications import residual_numeric
from .reports import SampleSpec
from .specs import OPERATORS, SpecError, load_spec, parse_binary, parse_negation

SPEC_HELP = "operator spec, inline JSON or a JSON file; kinds: " + ", ".join(OPERATORS)


def _sample_spec(args) -> SampleSpec:
    kw = {"grid_n": args.grid, "seed": args.seed}
    if args.tol is not None:
        kw["tolerance"] = args.tol
    return SampleSpec(**kw)


def _json_flag(sub):
    sub.add_argument("--json", action="store_true", help="JSON output")


def _common(sub):
    """The sample-plan flags, for the subcommands that run a check."""
    sub.add_argument("--grid", type=int, default=101, help="grid resolution")
    sub.add_argument("--seed", type=int, default=42, help="random sample seed")
    sub.add_argument("--tol", type=float, default=None, help="tolerance")
    _json_flag(sub)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genimpl",
        description="Generated fuzzy connectives, residuals, and property checks",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("eval", help="evaluate an operator at a point")
    p.add_argument("spec", help=SPEC_HELP)
    p.add_argument("x", type=float)
    p.add_argument("y", type=float)
    _json_flag(p)

    p = subs.add_parser("residual", help="numeric residual of an operator")
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
        default="sn,r,lk",
        help="comma list from sn,r,lk (default all)",
    )
    _common(p)

    p = subs.add_parser("counterexample", help="search for a law violation")
    p.add_argument("spec", help=SPEC_HELP)
    p.add_argument("law", choices=["associativity", "EP"])
    _common(p)

    return parser


def _check_point(args) -> None:
    # checked here, once per command: the operators' own __call__ sits
    # inside the law-check loops and stays unchecked
    check_unit(args.x, "x")
    check_unit(args.y, "y")


def cmd_eval(args) -> int:
    _check_point(args)
    op = parse_binary(load_spec(args.spec))
    v = op(args.x, args.y)
    if args.json:
        print(json.dumps({"label": op.label, "value": v}))
    else:
        print(f"{v:.17g}")
    return 0


def cmd_residual(args) -> int:
    _check_point(args)
    c = parse_binary(load_spec(args.spec))
    v = residual_numeric(c, args.x, args.y)
    if args.json:
        print(json.dumps({"label": f"R[{c.label}]", "value": v}))
    else:
        print(f"{v:.17g}")
    return 0


def cmd_verify(args) -> int:
    op = parse_binary(load_spec(args.spec))
    s = _sample_spec(args)
    reports = []
    for token in args.properties:
        if token == "axioms":
            reports.append(properties.check_implication_axioms(op, s))
        elif token == "tnorm":
            reports.append(properties.check_tnorm_axioms(op, s))
        elif token in properties.IMPLICATION_PROPERTIES or token.startswith("CP:"):
            prop, _, neg_spec = token.partition(":")
            if prop == "CP" and not neg_spec:
                raise SpecError("CP needs a negation: CP:'{...}'")
            neg = parse_negation(load_spec(neg_spec)) if neg_spec else None
            reports.append(properties.check_property(op, prop, s, neg))
        else:
            print(f"unknown property {token!r}", file=sys.stderr)
            return 2
    print(json.dumps([r.as_dict() for r in reports], indent=2))
    return 0 if all(r.holds for r in reports) else 1


def cmd_surface(args) -> int:
    op = parse_binary(load_spec(args.spec))
    n = args.n
    if n < 2:
        print("surface resolution must be >= 2", file=sys.stderr)
        return 2
    try:
        fh = open(args.output, "w", newline="")
    except OSError as e:
        print(f"cannot write {args.output}: {e}", file=sys.stderr)
        return 2
    with fh:
        fh.write("x,y,value\n")
        for i in range(n):
            x = i / (n - 1)
            for j in range(n):
                y = j / (n - 1)
                fh.write(f"{x:.17g},{y:.17g},{op(x, y):.17g}\n")
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
    probes = {
        "sn": classes.sn_probe,
        "r": classes.r_probe,
        "lk": classes.conjugate_lk_probe,
    }
    results = []
    for name in args.classes.split(","):
        name = name.strip().lower()
        if name not in probes:
            print(f"unknown class {name!r}", file=sys.stderr)
            return 2
        results.append(probes[name](i, s))
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
    "residual": cmd_residual,
    "verify": cmd_verify,
    "surface": cmd_surface,
    "compare": cmd_compare,
    "classify": cmd_classify,
    "counterexample": cmd_counterexample,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (SpecError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
