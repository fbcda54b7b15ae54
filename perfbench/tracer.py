"""Spans recorded from outside the package, and the layer metrics derived
from them.

A ``Tracer`` replaces public functions of ``graphcodes`` modules with
wrappers that record one span per call: name, start, end, the span that was
open when it started (its parent), a few sizes and the exception type if the
call raised.  Nothing inside the package changes.  Wrapped functions are all
called on the caller's thread (the distance search's worker threads run
unwrapped helpers), so one stack of open spans suffices.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# Prefix of the line on which a traced CLI process reports its spans.
SPANS_TAG = "perfbench-spans "


def table_bytes(F):
    """Bytes held by the numpy arrays of a FieldSpec."""
    return sum(v.nbytes for v in vars(F).values() if hasattr(v, "nbytes"))


# (span name, [(module, attribute) to patch], sizes(args, result) or None).
# A function imported by name into a second module is patched there too.
LAYERS = (
    ("gfq.make_field", [("graphcodes.gfq", "make_field"), ("graphcodes.cli", "make_field")],
     lambda a, r: {"q": r.q, "bytes": table_bytes(r)}),
    ("toric.parameterize", [("graphcodes.toric", "parameterize")],
     lambda a, r: {"tuples": (a[1].q - 1) ** (a[0].n - 1)}),
    ("toric.evaluation_matrix", [("graphcodes.toric", "evaluation_matrix"),
                                 ("graphcodes.codes", "evaluation_matrix")],
     lambda a, r: {"cells": int(r.size)}),
    ("codes.rref", [("graphcodes.codes", "rref")],
     lambda a, r: {"cells": int(a[0].shape[0] * a[0].shape[1])}),
    ("codes.dimension", [("graphcodes.codes", "dimension")], None),
    ("codes.code_instance", [("graphcodes.codes", "code_instance")],
     lambda a, r: {"k": r.k, "m": r.m, "q": r.X.F.q}),
    ("codes.null_space", [("graphcodes.codes", "null_space")], None),
    ("codes.minimum_distance", [("graphcodes.codes", "minimum_distance")], None),
    ("graph.enumerate_eulerian", [("graphcodes.graph", "enumerate_eulerian"),
                                  ("graphcodes.eulerian3", "enumerate_eulerian")],
     lambda a, r: {"subgraphs": len(r)}),
    ("eulerian3.max_parity_join", [("graphcodes.eulerian3", "max_parity_join")], None),
    ("eulerian3.dim_ternary", [("graphcodes.eulerian3", "dim_ternary")], None),
    ("cli.verify", [("graphcodes.cli", "verify")], None),
)


def new_span(name, start, end=None, parent=-1):
    """A span: name, start, end, parent (index or -1), sizes, error
    (exception type name or None)."""
    return {"name": name, "start": start, "end": end, "parent": parent,
            "sizes": {}, "error": None}


class Tracer:
    """Collects the spans of the calls made through installed wrappers."""

    def __init__(self):
        self.spans = []
        self._open = []

    def record(self, name, start, end):
        """A span timed elsewhere, such as interpreter start-up."""
        self.spans.append(new_span(name, start, end))

    @contextmanager
    def span(self, name):
        span = new_span(name, time.perf_counter(), parent=self._open[-1] if self._open else -1)
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        try:
            yield span
        except BaseException as exc:
            span["error"] = type(exc).__name__
            raise
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, name, fn, sizes):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if sizes is not None:
                    try:
                        span["sizes"] = sizes(args, result)
                    except (AttributeError, IndexError, TypeError):
                        pass  # called another way: the span keeps its time only
                return result
        return traced

    def install(self):
        """Wrap every layer function that exists; returns a callable that
        restores them.  A function a later version moves or removes simply
        records no spans."""
        saved = []
        for name, targets, sizes in LAYERS:
            for module_name, attr in targets:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                original = getattr(module, attr, None)
                if original is None:
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, sizes))

        def restore():
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
        return restore

    def take(self):
        spans, self.spans = self.spans, []
        return spans


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Each span's duration minus the part its direct children cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] >= 0:
            children[s["parent"]].append((s["start"], s["end"]))
    return [s["end"] - s["start"] - covered(children[i], s["start"], s["end"])
            for i, s in enumerate(spans)]


def coverage(spans, wall):
    """Share of a job's wall time covered by its top-level spans."""
    top = [(s["start"], s["end"]) for s in spans if s["parent"] < 0]
    if not top:
        return 0.0
    lo = min(start for start, _ in top)
    return covered(top, lo, lo + wall) / wall


def _ancestors(spans, i):
    while spans[i]["parent"] >= 0:
        i = spans[i]["parent"]
        yield spans[i]


# Per-layer metrics reported by the traced run, with their units.
LAYER_UNITS = {
    "gfq.make_field.ms": "ms",
    "gfq.table_bytes": "bytes",
    "toric.parameterize.ms": "ms",
    "toric.torus_tuples": "count",
    "toric.evaluation_matrix.ms": "ms",
    "toric.evaluation_matrix.cells": "count",
    "codes.rref.ms": "ms",
    "codes.rref.calls": "count",
    "codes.rref.cells": "count",
    "codes.rref.wasted_ms": "ms",
    "codes.dimension.calls": "count",
    "codes.search.ms": "ms",
    "codes.search.classes": "count",
    "codes.search.classes_per_s": "1/s",
    "codes.search.dual_share": "ratio",
    "graph.enumerate_eulerian.ms": "ms",
    "graph.enumerate_eulerian.calls": "count",
    "graph.eulerian_subgraphs": "count",
    "eulerian3.max_parity_join.ms": "ms",
    "eulerian3.dim_ternary.ms": "ms",
    "cli.startup.ms": "ms",
    "cli.import.ms": "ms",
    "cli.self.ms": "ms",
    "cli.verify.ms": "ms",
    "cli.exit.ms": "ms",
}

_SELF_MS = {
    "gfq.make_field": "gfq.make_field.ms",
    "toric.parameterize": "toric.parameterize.ms",
    "toric.evaluation_matrix": "toric.evaluation_matrix.ms",
    "codes.rref": "codes.rref.ms",
    "codes.minimum_distance": "codes.search.ms",
    "graph.enumerate_eulerian": "graph.enumerate_eulerian.ms",
    "eulerian3.max_parity_join": "eulerian3.max_parity_join.ms",
    "eulerian3.dim_ternary": "eulerian3.dim_ternary.ms",
    "cli.startup": "cli.startup.ms",
    "cli.import": "cli.import.ms",
    "cli.run": "cli.self.ms",
    "cli.verify": "cli.verify.ms",
    "cli.exit": "cli.exit.ms",
}


def layer_metrics(jobs):
    """Per-layer totals over one pass.  ``jobs`` is a list of (scope, spans):
    spans of one process share a scope, so a field counts once per process."""
    out = dict.fromkeys(LAYER_UNITS, 0.0)
    fields = {}
    primal = dual = 0
    for scope, spans in jobs:
        for i, (s, self_s) in enumerate(zip(spans, self_times(spans))):
            name, sizes = s["name"], s["sizes"]
            if name in _SELF_MS:
                out[_SELF_MS[name]] += 1000 * self_s
            if name == "gfq.make_field" and sizes:
                fields[(scope, sizes["q"])] = sizes["bytes"]
            elif name == "toric.parameterize":
                out["toric.torus_tuples"] += sizes.get("tuples", 0)
            elif name == "toric.evaluation_matrix":
                out["toric.evaluation_matrix.cells"] += sizes.get("cells", 0)
            elif name == "codes.rref":
                out["codes.rref.calls"] += 1
                out["codes.rref.cells"] += sizes.get("cells", 0)
                if any(a["name"] == "codes.minimum_distance" and a["error"] == "BudgetExceeded"
                       for a in _ancestors(spans, i)):
                    out["codes.rref.wasted_ms"] += 1000 * self_s
            elif name == "codes.dimension":
                out["codes.dimension.calls"] += 1
            elif name == "graph.enumerate_eulerian":
                out["graph.enumerate_eulerian.calls"] += 1
                out["graph.eulerian_subgraphs"] += sizes.get("subgraphs", 0)
            elif name == "codes.minimum_distance" and s["error"] is None:
                inst = next((c["sizes"] for c in spans[i + 1:]
                             if c["parent"] == i and c["name"] == "codes.code_instance"), None)
                if inst and inst["k"] < inst["m"]:
                    q, k, m = inst["q"], inst["k"], inst["m"]
                    p, d = (q**k - 1) // (q - 1), (q ** (m - k) - 1) // (q - 1)
                    if p <= d:
                        primal += p
                    else:
                        dual += d
    out["gfq.table_bytes"] = float(sum(fields.values()))
    classes = primal + dual
    out["codes.search.classes"] = float(classes)
    if classes:
        out["codes.search.dual_share"] = dual / classes
        if out["codes.search.ms"] > 0:
            out["codes.search.classes_per_s"] = classes / (out["codes.search.ms"] / 1000)
    return out
