"""Span tracing of one benchmark pass, layer by layer.

A Tracer wraps the public functions of each modloc module.  Every name is
patched where it is looked up: a function imported with `from .x import f`
is replaced in each modloc module that holds it, and a method is replaced
on its class.  Each call records a span [name, start, end, parent] in
memory; `layer_metrics` reduces the spans to calls, self times and the
counts the benchmark reports.  A span's self time is its duration minus
the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("laguerre", "spectral", "gridop", "localization", "verification",
          "artifacts")

CHECKS = ("check_commutators", "check_lowest_weights", "check_D_positive",
          "check_HC_chain", "check_T_bounds", "check_weyl",
          "check_positive_inclusions", "f_alpha_profile",
          "check_S_invariance_convergence", "check_covariance_transport",
          "check_grid_convergence")


def _basis_elements(tracer, args, out):
    tracer.counts["laguerre.basis_matrix.elements"] += (
        args["spec"].M * np.size(args["E"]))


def _projection(tracer, args, out):
    tracer.max_residual = max(tracer.max_residual, out.projection_residual)


def _grid_state(tracer, args, out):
    samples = args["state"].samples
    # holding the array keeps its id from being reused within the pass
    tracer.states[id(samples)] = samples


def _file_bytes(metric):
    def hook(tracer, args, out):
        tracer.counts[metric] += os.path.getsize(args["path"])
    return hook


def _frequency_label(args):
    from modloc.laguerre import BasisSpec

    if isinstance(args["target"], BasisSpec):
        return "localization.positive_frequency." + args["family"]
    return "localization.positive_frequency.grid"


# (module, attribute, span name, label(args) or None, hook(tracer, args, out)
# or None); an attribute "Class.method" is patched on the class
TARGETS = (
    ("laguerre", "basis_matrix", "laguerre.basis_matrix", None,
     _basis_elements),
    ("laguerre", "gauss_laguerre", "laguerre.gauss_laguerre", None, None),
    ("spectral", "build_generators", "spectral.build_generators", None, None),
    ("spectral", "build_tilde_generators", "spectral.build_tilde_generators",
     None, None),
    ("spectral", "build_T", "spectral.build_T", None, None),
    ("spectral", "matrix_function", "spectral.matrix_function", None, None),
    ("spectral", "unitary_flow", "spectral.unitary_flow", None, None),
    ("gridop", "build_grid_ops", "gridop.build_grid_ops", None, None),
    ("gridop", "GridRep.expect_T", "gridop.expect_T", None, _grid_state),
    ("gridop", "GridRep.commutator_residuals", "gridop.commutator_residuals",
     None, None),
    ("localization", "make_bump", "localization.make_bump", None, None),
    ("localization", "FourierProfile.__init__", "localization.FourierProfile",
     None, None),
    ("localization", "positive_frequency", None, _frequency_label,
     _projection),
    ("verification", "build_interval_fixture",
     "verification.build_interval_fixture", None, None),
    *(("verification", name, "verification." + name, None, None)
      for name in CHECKS),
    ("artifacts", "save_representation", "artifacts.save_representation",
     None, _file_bytes("artifacts.save_representation.bytes")),
    ("artifacts", "save_state", "artifacts.save_state", None,
     _file_bytes("artifacts.save_state.bytes")),
    ("artifacts", "write_state_csv", "artifacts.write_state_csv", None, None),
    ("artifacts", "write_report_json", "artifacts.write_report_json", None,
     None),
)

# every per-layer metric, in report order, with its unit
PER_LAYER = (
    ("laguerre.basis_matrix.calls", "count"),
    ("laguerre.basis_matrix.s", "s"),
    ("laguerre.basis_matrix.elements", "count"),
    ("laguerre.gauss_laguerre.s", "s"),
    ("spectral.build_generators.calls", "count"),
    ("spectral.build_generators.s", "s"),
    ("spectral.build_tilde_generators.s", "s"),
    ("spectral.build_T.s", "s"),
    ("spectral.matrix_function.calls", "count"),
    ("spectral.matrix_function.s", "s"),
    ("spectral.unitary_flow.calls", "count"),
    ("spectral.unitary_flow.s", "s"),
    ("gridop.build_grid_ops.calls", "count"),
    ("gridop.build_grid_ops.s", "s"),
    ("gridop.expect_T.calls", "count"),
    ("gridop.expect_T.s", "s"),
    ("gridop.expect_T.per_state", "ratio"),
    ("gridop.commutator_residuals.s", "s"),
    ("localization.make_bump.s", "s"),
    ("localization.FourierProfile.calls", "count"),
    ("localization.FourierProfile.s", "s"),
    ("localization.positive_frequency.calls", "count"),
    ("localization.positive_frequency.Z.s", "s"),
    ("localization.positive_frequency.Ztilde.s", "s"),
    ("localization.positive_frequency.grid.s", "s"),
    ("localization.projection_residual.max", "ratio"),
    ("verification.build_interval_fixture.calls", "count"),
    ("verification.build_interval_fixture.s", "s"),
    *(("verification." + name + ".s", "s") for name in CHECKS),
    ("artifacts.save_representation.s", "s"),
    ("artifacts.save_representation.bytes", "B"),
    ("artifacts.save_state.s", "s"),
    ("artifacts.save_state.bytes", "B"),
    ("artifacts.write_state_csv.s", "s"),
    ("artifacts.write_report_json.s", "s"),
    *((layer + ".self_s", "s") for layer in LAYERS),
    ("bench.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.run_s_untraced", "s"),
    ("trace.run_s_traced", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Context manager that patches the TARGETS and records their spans."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.max_residual = 0.0
        self.states = {}
        self._stack = []
        self._restore = []

    def _wrap(self, fn, name, label, hook):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            if label or hook:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
            span = [label(bound.arguments) if label else name,
                    time.perf_counter(), None,
                    self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if hook:
                hook(self, bound.arguments, out)
            return out

        return traced

    def __enter__(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "modloc" or n.startswith("modloc.")]
        for modname, attr, name, label, hook in TARGETS:
            owner = importlib.import_module("modloc." + modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(orig, name, label, hook))
                self._restore.append((cls, meth, orig))
                continue
            orig = getattr(owner, attr)
            traced = self._wrap(orig, name, label, hook)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, traced)
                        self._restore.append((mod, key, orig))
        return self

    def __exit__(self, *exc):
        for obj, key, orig in reversed(self._restore):
            setattr(obj, key, orig)
        self._restore.clear()
        return False

    def self_times(self):
        """(calls, self seconds) per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = Counter()
        self_s = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        return calls, self_s

    def write_spans(self, path, origin: float):
        """Spans as JSON, times in seconds from origin."""
        rows = [[n, s - origin, e - origin, p] for n, s, e, p in self.spans]
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": rows}, f)
            f.write("\n")


def layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float) -> dict:
    """Every PER_LAYER metric as {name: value}."""
    calls, self_s = tracer.self_times()
    freq = "localization.positive_frequency."
    values = {
        "localization.positive_frequency.calls":
            sum(c for n, c in calls.items() if n.startswith(freq)),
        "localization.projection_residual.max": tracer.max_residual,
        "gridop.expect_T.per_state": (calls["gridop.expect_T"]
                                      / max(len(tracer.states), 1)),
        "laguerre.basis_matrix.elements":
            tracer.counts["laguerre.basis_matrix.elements"],
        "artifacts.save_representation.bytes":
            tracer.counts["artifacts.save_representation.bytes"],
        "artifacts.save_state.bytes":
            tracer.counts["artifacts.save_state.bytes"],
        "bench.self_s": traced_s - sum(self_s.values()),
        "trace.spans": len(tracer.spans),
        "trace.run_s_untraced": untraced_s,
        "trace.run_s_traced": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
    }
    for layer in LAYERS:
        values[layer + ".self_s"] = sum(
            v for n, v in self_s.items() if n.startswith(layer + "."))
    for name, _unit in PER_LAYER:
        if name in values:
            continue
        span, _, field = name.rpartition(".")
        values[name] = calls[span] if field == "calls" else self_s[span]
    return values
