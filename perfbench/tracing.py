"""Per-layer spans, recorded from outside the program.

The tracer replaces each public function of a treecut layer with a wrapper
that records a span: name, start, end, parent span and operation id.  A
function is replaced at *every* module attribute that binds it (``search``
and ``cli`` import ``solve``/``decide`` by name), so calls are seen however
they are reached.  Nothing under ``src/`` changes; ``uninstall`` puts the
original objects back.

Everything runs on one thread and no layer queues work for another, so
there is no waiting time to record: a layer's time is its busy time.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter


def _cells(tree, parts, outliers, runs=1):
    n = tree.vertex_count
    return runs * n * (min(parts, n) + 1) * (min(outliers, n) + 1)


def _solve_count(args, kwargs, result):
    tree, spec = args[0], args[1]
    return _cells(tree, spec.parts, spec.outliers)


def _lane_count(args, kwargs, result):
    # root_row(tree, xi, kappa, lam, ...) / decide_many(tree, xis, kappa, lam, ...)
    if result is None:
        return None
    tree, x, kappa, lam = args[:4]
    return _cells(tree, kappa, lam, len(x) if isinstance(x, list) else 1)


def _edges_in(args, kwargs, result):
    if hasattr(result, "edge_count"):
        return result.edge_count
    return result.vertex_count - 1


# (module, attribute, span name, count taken from the call or None)
TRACED = (
    ("treecut.tree", "build_rooted_tree", "tree.build", None),
    ("treecut.tree", "RootedTree.dense_arrays", "tree.dense", None),
    ("treecut.solver", "decide", "solver.decide", None),
    ("treecut.solver", "decide_batch", "solver.decide_batch", None),
    ("treecut.solver", "root_feasibility", "solver.root_feasibility", None),
    ("treecut.solver", "solve", "solver.solve", _solve_count),
    ("treecut._fastlane", "root_row", "fastlane.root_row", _lane_count),
    ("treecut._fastlane", "decide_many", "fastlane.decide_many", _lane_count),
    ("treecut.witness", "reconstruct_subpartition", "witness.reconstruct", None),
    ("treecut.search", "min_xi", "search.min_xi", lambda a, k, r: r.probes),
    ("treecut.search", "k_max", "search.k_max", None),
    ("treecut.search", "decide_forest", "search.decide_forest",
     lambda a, k, r: len(a[0].trees)),
    ("treecut.search", "decide_semisupervised", "search.decide_semisupervised", None),
    ("treecut.graphs", "load_instance", "graphs.load", _edges_in),
    ("treecut.graphs", "similarity_spanning_tree", "graphs.spanning_tree", None),
    ("treecut.graphs", "forest_from_graph", "graphs.forest", None),
    ("treecut.cli", "main", "cli.main", None),
)

LANE_ONLY = tuple(t for t in TRACED if t[2].startswith("fastlane."))


class Tracer:
    """Span recorder.  Spans are rows ``[name, start, end, parent, op,
    count]`` kept in memory; ``parent`` is an index into ``spans`` or -1."""

    def __init__(self, traced=TRACED):
        self.traced = traced
        self.spans = []
        self.op = None
        self._stack = []
        self._patches = []

    def _wrap(self, fn, name, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1,
                    self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, count in self.traced:
            module = sys.modules.get(module_name)
            if module is None:  # e.g. treecut.cli outside the CLI workload
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name, count))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, count)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "treecut"
                                       or mod_name.startswith("treecut.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()


def layer_metrics(spans, stdout_bytes: int, traced_ops_per_s: float,
                  untraced_ops_per_s: float) -> dict:
    """Per-layer totals from the spans of one traced run, as
    ``{name: {"value", "unit"}}``."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _op, _count in spans:
        if parent >= 0:
            child[parent] += end - start
    time, self_time, calls, counts = {}, {}, {}, {}
    engaged = engaged_s = 0
    for i, (name, start, end, _parent, _op, count) in enumerate(spans):
        dur = end - start
        time[name] = time.get(name, 0.0) + dur
        self_time[name] = self_time.get(name, 0.0) + dur - child[i]
        calls[name] = calls.get(name, 0) + 1
        if count is not None:
            counts[name] = counts.get(name, 0) + count
        if name.startswith("fastlane.") and count is not None:
            engaged += 1
            engaged_s += dur

    def t(name):
        return time.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    def c(name):
        return counts.get(name, 0)

    def ratio(a, b, scale=1.0):
        return a * scale / b if b else 0.0

    lane_attempts = n("fastlane.root_row") + n("fastlane.decide_many")
    cells = c("solver.solve") + c("fastlane.root_row") + c("fastlane.decide_many")
    probes = c("search.min_xi")
    metrics = {
        "tree.build_s": (t("tree.build"), "s"),
        "tree.build_calls": (n("tree.build"), "count"),
        "tree.dense_s": (t("tree.dense"), "s"),
        "solver.decide_s": (t("solver.decide"), "s"),
        "solver.decide_calls": (n("solver.decide"), "count"),
        "solver.solve_s": (t("solver.solve"), "s"),
        "solver.solve_calls": (n("solver.solve"), "count"),
        "solver.cells": (cells, "count"),
        "solver.ns_per_cell": (ratio(t("solver.solve") + engaged_s, cells, 1e9), "ns"),
        "fastlane.attempts": (lane_attempts, "count"),
        "fastlane.engaged": (engaged, "count"),
        "fastlane.engaged_ratio": (ratio(engaged, lane_attempts), "ratio"),
        "fastlane.s": (t("fastlane.root_row") + t("fastlane.decide_many"), "s"),
        "witness.reconstruct_s": (t("witness.reconstruct"), "s"),
        "witness.reconstruct_calls": (n("witness.reconstruct"), "count"),
        "search.min_xi_s": (t("search.min_xi"), "s"),
        "search.probes": (probes, "count"),
        "search.probes_per_call": (ratio(probes, n("search.min_xi")), "count"),
        "search.ms_per_probe": (ratio(t("search.min_xi"), probes, 1e3), "ms"),
        "search.self_s": (self_time.get("search.min_xi", 0.0), "s"),
        "search.kmax_s": (t("search.k_max"), "s"),
        "search.forest_s": (t("search.decide_forest"), "s"),
        "search.forest_self_s": (self_time.get("search.decide_forest", 0.0), "s"),
        "search.forest_trees": (c("search.decide_forest"), "count"),
        "search.semisup_s": (t("search.decide_semisupervised"), "s"),
        "search.semisup_self_s": (self_time.get("search.decide_semisupervised", 0.0), "s"),
        "graphs.load_s": (t("graphs.load"), "s"),
        "graphs.spanning_tree_s": (t("graphs.spanning_tree"), "s"),
        "graphs.forest_s": (t("graphs.forest"), "s"),
        "graphs.edges_in": (c("graphs.load"), "count"),
        "cli.main_s": (t("cli.main"), "s"),
        "cli.self_s": (self_time.get("cli.main", 0.0), "s"),
        "cli.stdout_bytes": (stdout_bytes, "bytes"),
        "trace.traced_ops_per_s": (traced_ops_per_s, "1/s"),
        "trace.untraced_ops_per_s": (untraced_ops_per_s, "1/s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
