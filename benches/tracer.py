"""In-memory call tracer for the groupfx layers.

The tracer wraps the public functions of each groupfx module: the names the
package exports in ``groupfx.__all__``, plus the public functions of
``groupfx.cli``, which the package does not re-export. Modules bind names
with ``from .linmod import fit_ols``, so wrapping ``groupfx.linmod.fit_ols``
alone would miss every internal call. :meth:`Tracer.install` therefore
rebinds every reference to a wrapped function in every loaded groupfx
module, including module-level dispatch tables such as ``cli._RUNNERS``, and
:meth:`Tracer.uninstall` puts the originals back.

Spans stay in memory as tuples; :func:`layer_metrics` folds them into the
per-layer metrics of a traced run. Only the standard library is imported
here, so the cli_cold child entry can load it without adding to the import
time it measures.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import sys
import time

LAYERS = ("linmod", "uniform", "effects", "clr", "sim", "cli")

# Work counters computed from a successful call's arguments and result:
# function -> (metric name, count function).
COUNTERS = {
    "sim.run_case": ("sim.replicates", lambda a, r: a["config"].replicates),
    "sim.run_paper_suite": (
        "sim.suite_checks_failed", lambda a, r: sum(not c.passed for c in r.checks)),
    "effects.optimal_effect": (
        "effects.optimal_effect.sign_vectors", lambda a, r: 2 ** (len(a["group"]) - 1)),
    "clr.solve_clr": (
        "clr.fold_refits",
        lambda a, r: 2 * a["n_folds"] if a["selection"] == "kfold" else 0),
    "linmod.fit_ols": ("linmod.fit_ols.rows", lambda a, r: a["data"].n),
    "linmod.load_csv": ("linmod.load_csv.bytes", lambda a, r: os.path.getsize(a["path"])),
    "cli.render_report": ("cli.output_bytes", lambda a, r: len(r)),
}

# Per-function metrics reported alongside the per-layer totals.
FUNCTION_SELF_MS = (
    "sim.run_case", "sim.generate_design", "effects.optimal_effect",
    "effects.estimate_effect", "effects.apc_arrangement", "effects.silvey_variance",
    "clr.solve_clr", "linmod.fit_ols", "linmod.correlation", "linmod.load_csv",
    "uniform.table1", "cli.parse_args", "cli.render_report",
)
FUNCTION_CALLS = ("sim.run_case", "effects.optimal_effect", "clr.solve_clr", "linmod.fit_ols")

# Time per unit of work: metric -> (function whose self time, counter).
PER_UNIT_US = {
    "sim.us_per_replicate": ("sim.run_case", "sim.replicates"),
    "effects.optimal_effect.us_per_sign_vector": (
        "effects.optimal_effect", "effects.optimal_effect.sign_vectors"),
    "clr.us_per_fold_refit": ("clr.solve_clr", "clr.fold_refits"),
}

# Metrics the caller measures outside the wrappers and passes to layer_metrics.
EXTERNAL = ("effects.apc_warnings", "cli.interpreter_ms", "cli.import_ms",
            "trace.overhead_frac")


def _public_functions():
    """Yield (qualified name, function) for every function the tracer
    wraps."""
    import groupfx

    exported = set(groupfx.__all__)
    for layer in LAYERS:
        mod = importlib.import_module(f"groupfx.{layer}")
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                    and (layer == "cli" or name in exported)):
                yield f"{layer}.{name}", obj


class Tracer:
    """Records one span per call into a wrapped groupfx function.

    A span is ``(op, span_id, parent_id, name, start, end, nested_s, failed,
    counts)``: ``nested_s`` is the time covered by the spans it caused, so
    ``end - start - nested_s`` is the call's self time. Set :attr:`op` to
    the current op index so every span of one op shares it.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = None
        self._stack: list[list] = []
        self._ids = itertools.count()
        self._undo: list[tuple] = []

    def install(self) -> None:
        """Rebind every reference to a public groupfx function to a wrapper."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        wrappers = {id(fn): (fn, self._wrap(name, fn)) for name, fn in _public_functions()}

        def rebind(table: dict) -> None:
            for key, val in list(table.items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._undo.append((table, key, val))
                    table[key] = hit[1]

        for modname, mod in list(sys.modules.items()):
            if modname != "groupfx" and not modname.startswith("groupfx."):
                continue
            namespace = vars(mod)
            rebind(namespace)
            for key, val in list(namespace.items()):
                if isinstance(val, dict) and not key.startswith("__"):
                    rebind(val)

    def uninstall(self) -> None:
        """Restore every name :meth:`install` rebound."""
        while self._undo:
            table, key, val = self._undo.pop()
            table[key] = val

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1][0] if stack else None
            stack.append([span_id, 0.0])
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = clock()
                nested = stack.pop()[1]
                if stack:
                    stack[-1][1] += end - start
                counts = None
                if counter is not None and not failed:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counts = {counter[0]: counter[1](bound.arguments, result)}
                spans.append((self.op, span_id, parent, name, start, end, nested,
                              failed, counts))

        return traced


def metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    names = []
    for layer in LAYERS:
        names += [f"{layer}.calls", f"{layer}.self_ms", f"{layer}.failures"]
    names += [f"{fn}.self_ms" for fn in FUNCTION_SELF_MS]
    names += [f"{fn}.calls" for fn in FUNCTION_CALLS]
    names += [metric for metric, _ in COUNTERS.values()]
    names += list(PER_UNIT_US) + list(EXTERNAL)
    return names


def metric_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms/op"
    if ".us_per_" in name:
        return "us"
    if name == "trace.overhead_frac":
        return "frac"
    return "count/op"


def layer_metrics(spans, n_ops: int, external: dict) -> dict:
    """Fold the spans of ``n_ops`` traced ops into per-op layer metrics.

    ``external`` holds the per-op values of the metrics named in
    :data:`EXTERNAL`, which are measured outside the wrappers.
    """
    totals = dict.fromkeys(metric_names(), 0.0)
    self_s: dict[str, float] = {}
    for _op, _sid, _parent, name, start, end, nested, failed, counts in spans:
        layer = name.split(".", 1)[0]
        own = end - start - nested
        self_s[name] = self_s.get(name, 0.0) + own
        totals[f"{layer}.calls"] += 1
        totals[f"{layer}.self_ms"] += own * 1e3
        totals[f"{layer}.failures"] += failed
        if name in FUNCTION_CALLS:
            totals[f"{name}.calls"] += 1
        for metric, value in (counts or {}).items():
            totals[metric] += value
    for fn in FUNCTION_SELF_MS:
        totals[f"{fn}.self_ms"] = self_s.get(fn, 0.0) * 1e3
    for metric, (fn, counter) in PER_UNIT_US.items():
        work = totals[counter]
        totals[metric] = self_s.get(fn, 0.0) * 1e6 / work if work else 0.0
    per_op = {name: value / n_ops if name not in PER_UNIT_US else value
              for name, value in totals.items()}
    per_op.update(external)
    return per_op
