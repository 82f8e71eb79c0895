"""Per-layer tracing from outside the package.

:func:`install` wraps, without editing the package's source, the calls
into each module's public surface:

* the operator objects the package builds: ``Generator.fn``/``inverse``,
  the ``fn`` of connectives, negations and implication candidates, and
  ``Bijection.forward``/``inverse`` (by wrapping the dataclasses'
  ``__init__``, so every operator built afterwards is traced);
* the module functions ``check_*``, ``compare_surfaces``,
  ``find_associativity_counterexample``, ``probe_continuity``,
  ``residual_numeric``, the ``*_probe`` functions, ``load_spec`` and
  ``parse_*``, and ``cli.main``;
* report serialisation: ``as_dict``/``to_json`` and the ``json.dumps``
  the CLI calls.

Each wrapped call is a span.  Spans are not stored: when one closes, its
duration, its self time (duration minus the time its child spans cover)
and a few counts are added to flat counters, so memory stays flat over
millions of calls.  :func:`layer_metrics` turns the counters into the
benchmark's per-layer metrics.
"""

from __future__ import annotations

import json
import sys
import types
from collections import defaultdict
from time import perf_counter

import mpmath

OPERATOR_LAYERS = ("connectives", "implications")

PROPERTY_CHECKS = (
    "check_implication_axioms", "check_second_arg_monotone", "check_property",
    "check_tnorm_axioms", "check_negation_axioms", "compare_surfaces",
    "find_associativity_counterexample", "probe_continuity",
)
PROBES = ("sn_probe", "r_probe", "conjugate_lk_probe")
PARSERS = ("parse_generator", "parse_negation", "parse_bijection",
           "parse_connective", "parse_implication", "parse_binary")


class Tracer:
    def __init__(self):
        self.counters = defaultdict(float)
        self._stack = []  # open spans: [layer, kind, child_time]
        self._probes_open = 0

    def wrap(self, fn, layer: str, kind: str):
        """fn, recording a span of the given layer and kind per call."""
        if getattr(fn, "_perfbench_layer", None):
            return fn  # already traced, e.g. an operator re-labelled by the CLI
        mpf = mpmath.mpf
        stack, c, tracer = self._stack, self.counters, self
        key = f"{layer}.{kind}."
        operator = layer in OPERATOR_LAYERS
        numeric = operator or layer == "generators"
        is_check, is_probe = layer == "properties", layer == "classes"

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if numeric and (isinstance(args[0], mpf) or isinstance(args[-1], mpf)):
                c[key + "mpf"] += 1
            if operator and parent is not None:
                if parent[0] == "properties":
                    c["properties.evals"] += 1
                if tracer._probes_open and parent[0] in ("properties", "classes"):
                    c["classes.evals"] += 1
                if parent[1] == "residual" and layer == "connectives":
                    c["implications.residual_evals"] += 1
            if is_probe:
                tracer._probes_open += 1
            frame = [layer, kind, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if is_probe:
                    tracer._probes_open -= 1
                c[key + "calls"] += 1
                c[key + "self_s"] += dt - frame[2]
                if parent is not None:
                    parent[2] += dt
                if parent is None or parent[0] != layer:
                    c[key + "entries"] += 1
                    c[key + "entry_s"] += dt
            if is_check and not result.holds:
                c[key + "fails"] += 1
            if layer == "reports" and isinstance(result, str) and (
                    parent is None or parent[0] != layer):
                c["reports.bytes"] += len(result.encode())
            return result

        traced._perfbench_layer = layer
        traced.__wrapped__ = fn
        return traced


def _replace_everywhere(modules, orig, new):
    # `from .x import f` copies the name; patch every copy
    for mod in modules:
        for name, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, name, new)


def _trace_init(tracer: Tracer, cls, fields_layer_kind):
    orig_init = cls.__init__

    def __init__(self, *args, **kwargs):
        orig_init(self, *args, **kwargs)
        for field_name, layer, kind in fields_layer_kind:
            fn = getattr(self, field_name)
            if fn is not None:
                object.__setattr__(self, field_name, tracer.wrap(fn, layer, kind))

    cls.__init__ = __init__


def install() -> Tracer:
    """Wrap the package's public surface; returns the tracer collecting spans."""
    from genimpl import (bijections, classes, cli, connectives, generators,
                         implications, properties, reports, specs)

    tracer = Tracer()
    modules = [m for n, m in sys.modules.items()
               if n == "genimpl" or n.startswith("genimpl.")]

    _trace_init(tracer, generators.Generator,
                [("fn", "generators", "fn"), ("inverse", "generators", "inverse")])
    _trace_init(tracer, connectives.BinaryConnective, [("fn", "connectives", "fn")])
    _trace_init(tracer, connectives.Negation, [("fn", "connectives", "fn")])
    _trace_init(tracer, implications.ImplicationCandidate,
                [("fn", "implications", "fn")])
    _trace_init(tracer, bijections.Bijection,
                [("forward", "bijections", "forward"),
                 ("inverse", "bijections", "inverse")])

    def functions(module, names, layer, kind):
        for name in names:
            orig = getattr(module, name)
            _replace_everywhere(modules, orig, tracer.wrap(orig, layer, kind))

    functions(properties, PROPERTY_CHECKS, "properties", "check")
    functions(implications, ["residual_numeric"], "implications", "residual")
    functions(classes, PROBES, "classes", "probe")
    functions(specs, PARSERS, "specs", "parse")
    functions(specs, ["load_spec"], "specs", "load")
    functions(cli, ["main"], "cli", "main")
    for cls in (reports.PropertyReport, classes.ClassProbeResult):
        for name in ("as_dict", "to_json"):
            setattr(cls, name, tracer.wrap(getattr(cls, name), "reports", "serialise"))
    cli.json = types.SimpleNamespace(
        dumps=tracer.wrap(json.dumps, "reports", "serialise"))
    return tracer


def merge(counter_sets) -> dict:
    total = defaultdict(float)
    for counters in counter_sets:
        for k, v in counters.items():
            total[k] += v
    return total


def layer_metrics(c) -> dict:
    """The per-layer metrics, from (merged) tracer counters."""
    c = defaultdict(float, c)

    def ratio(a, b):
        return a / b if b else 0.0

    gen_calls = c["generators.fn.calls"] + c["generators.inverse.calls"]
    checks = c["properties.check.calls"]
    probes = c["classes.probe.calls"]
    return {
        "generators.fn_calls": c["generators.fn.calls"],
        "generators.fn_s": c["generators.fn.self_s"],
        "generators.mpf_share": ratio(
            c["generators.fn.mpf"] + c["generators.inverse.mpf"], gen_calls),
        "generators.inverse_calls": c["generators.inverse.calls"],
        "generators.inverse_s": c["generators.inverse.self_s"],
        "connectives.calls": c["connectives.fn.calls"],
        "connectives.self_s": c["connectives.fn.self_s"],
        "connectives.mpf_share": ratio(c["connectives.fn.mpf"], c["connectives.fn.calls"]),
        "implications.calls": c["implications.fn.calls"],
        "implications.self_s": c["implications.fn.self_s"] + c["implications.residual.self_s"],
        "implications.mpf_share": ratio(c["implications.fn.mpf"], c["implications.fn.calls"]),
        "implications.residual_calls": c["implications.residual.calls"],
        "implications.evals_per_residual": ratio(
            c["implications.residual_evals"], c["implications.residual.calls"]),
        "bijections.calls": c["bijections.forward.calls"] + c["bijections.inverse.calls"],
        "bijections.s": c["bijections.forward.self_s"] + c["bijections.inverse.self_s"],
        "properties.checks": checks,
        "properties.self_s": c["properties.check.self_s"],
        "properties.evals_per_check": ratio(c["properties.evals"], checks),
        "properties.fail_share": ratio(c["properties.check.fails"], checks),
        "classes.probes": probes,
        "classes.self_s": c["classes.probe.self_s"],
        "classes.evals_per_probe": ratio(c["classes.evals"], probes),
        "specs.parses": c["specs.parse.entries"],
        "specs.parse_s": c["specs.parse.entry_s"] + c["specs.load.entry_s"],
        "reports.serialise_s": c["reports.serialise.entry_s"],
        "reports.bytes": c["reports.bytes"],
        "cli.invocations": c["cli.main.calls"],
    }
