"""Per-layer tracing of fpmods from outside the package.

The tracer wraps public functions and methods of the six fpmods modules and
records a span around each call: per thread, a stack of open spans gives
every span its parent, and a span's self time is its duration minus the time
its child spans cover. Spans are aggregated in memory by name and by
(parent, child) edge, and written out when the run ends.

Module-level functions are rebound in every fpmods module that holds them,
because probability and cli import names such as ``intersect`` and
``monte_carlo`` by value; wrapping only the defining module would miss those
calls. Worker threads (``monte_carlo --threads 2``) start with an empty stack;
their outermost spans are adopted by the span open in the installing thread,
which waits for them, and the parent counts the union of their intervals as
covered. Spans in worker threads also include time spent waiting for the
interpreter lock, so their self times can add up to more than the wall time.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import threading
import time

# (span name, fpmods module, attribute path). Span names are the prefixes of
# the per-layer metric names.
SPANS = (
    ("series.mul", "series", "TruncatedSeries.__mul__"),
    ("linalg.rref", "linalg", "rref"),
    ("linalg.reduce_rows", "linalg", "reduce_rows"),
    ("linalg.nullspace", "linalg", "nullspace"),
    ("linalg.matmul", "linalg", "matmul"),
    ("linalg.nilpotent_block_sizes", "linalg", "nilpotent_block_sizes"),
    ("submodules.from_index", "submodules", "CyclicSubmodule.from_index"),
    ("submodules.intersect", "submodules", "intersect"),
    ("submodules.intersection_exponent_linalg", "submodules",
     "intersection_exponent_linalg"),
    ("submodules.sum_and_quotient", "submodules", "sum_and_quotient"),
    ("submodules.project", "submodules", "project"),
    ("submodules.lifts", "submodules", "lifts"),
    ("probability.sample_pair", "probability", "sample_pair"),
    ("probability.monte_carlo", "probability", "monte_carlo"),
    ("probability.tower_experiment", "probability", "tower_experiment"),
    ("probability.collision_probability_census", "probability",
     "collision_probability_census"),
    ("probability.pushforward_consistency", "probability", "pushforward_consistency"),
    ("pairing.enumerate_maximal_isotropic", "pairing", "enumerate_maximal_isotropic"),
    ("pairing.t_span", "pairing", "FpSubspace.t_span"),
    ("pairing.orthogonal_complement", "pairing", "FpSubspace.orthogonal_complement"),
    ("pairing.vectors", "pairing", "FpSubspace.vectors"),
    ("pairing.isotropic_diagnostics", "pairing", "isotropic_diagnostics"),
    ("cli.main", "cli", "main"),
    ("cli.run", "cli", "run"),
    ("cli.render_csv", "cli", "render_csv"),
    ("cli.render_json", "cli", "render_json"),
    ("cli.emit", "cli", "emit"),
)
# Counted, not timed: a span per construction would dominate the cost.
COUNTS = (("series.new", "series", "TruncatedSeries.__init__"),)
# Spans whose individual durations are kept for percentiles.
TIMED = {"linalg.rref", "submodules.intersect", "submodules.sum_and_quotient",
         "probability.sample_pair"}


def _rref_cells(args, result):
    shape = getattr(args[0], "shape", None)
    return shape[0] * shape[1] if shape is not None and len(shape) == 2 else 0


def _emitted_bytes(args, result):
    return sum(os.path.getsize(path) for path in result)


# Work measured per span, summed into the span's "amount": rref matrix
# cells, member vectors materialised, report bytes written. Generator spans
# count the items they yield.
AMOUNTS = {
    "linalg.rref": _rref_cells,
    "pairing.vectors": lambda args, result: len(result),
    "cli.emit": _emitted_bytes,
}


class _Stat:
    __slots__ = ("calls", "total", "self", "amount", "durations")

    def __init__(self, timed: bool):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.amount = 0
        self.durations = [] if timed else None


def _union_length(intervals) -> float:
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered


class Tracer:
    """Install with ``install()``, run the traced code, then ``uninstall()``."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []  # (stats, edges) of every thread that opened a span
        self._undo = []
        self._main_ident = None
        self._main_stack = None
        self.missing = []

    # ----- per-thread state

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.stats, local.edges = [], {}, {}
            with self._lock:
                self._threads.append((local.stats, local.edges))
        return local

    def _stat(self, stats, name):
        st = stats.get(name)
        if st is None:
            st = stats[name] = _Stat(name in TIMED)
        return st

    def _enter(self, name):
        local = self._state()
        stack = local.stack
        adopter = None
        if not stack and threading.get_ident() != self._main_ident and self._main_stack:
            adopter = self._main_stack[-1]
        # [name, start, same-thread child time, adopted child intervals, adopter]
        frame = [name, time.perf_counter(), 0.0, None, adopter]
        stack.append(frame)
        return frame

    def _exit(self, frame, calls, amount=0):
        end = time.perf_counter()
        local = self._local
        stack = local.stack
        stack.pop()
        name, start, child, adopted, adopter = frame
        duration = end - start
        covered = child + (_union_length(adopted) if adopted else 0.0)
        st = self._stat(local.stats, name)
        st.calls += calls
        st.total += duration
        st.self += max(0.0, duration - covered)
        st.amount += amount
        if st.durations is not None:
            st.durations.append(duration)
        if stack:
            parent = stack[-1]
            parent[2] += duration
        elif adopter is not None:
            parent = adopter
            with self._lock:
                if parent[3] is None:
                    parent[3] = []
                parent[3].append((start, end))
        else:
            parent = None
        if calls:
            key = (parent[0] if parent else None, name)
            local.edges[key] = local.edges.get(key, 0) + 1

    # ----- wrappers

    def _span(self, name, fn):
        amount_of = AMOUNTS.get(name)
        if inspect.isgeneratorfunction(fn):
            return self._generator_span(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                amount = amount_of(args, result) if amount_of and result is not None else 0
                self._exit(frame, 1, amount)

        return wrapper

    def _generator_span(self, name, fn):
        done = object()

        # A generator is timed only while it runs: each resume is a segment of
        # the same span, so work its consumer does between items is not its own.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            first = 1
            while True:
                frame = self._enter(name)
                item = done
                try:
                    item = next(it, done)
                finally:
                    self._exit(frame, first, 0 if item is done else 1)
                first = 0
                if item is done:
                    return
                yield item

        return wrapper

    def _counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._stat(self._state().stats, name).calls += 1
            return fn(*args, **kwargs)

        return wrapper

    # ----- installation

    def install(self, fpmods_modules):
        """Wrap every target and rebind every reference to it."""
        self._main_ident = threading.get_ident()
        self._main_stack = self._state().stack
        loaded = [m for n, m in sys.modules.items() if n == "fpmods" or n.startswith("fpmods.")]
        targets = [(n, m, a, self._span) for n, m, a in SPANS]
        targets += [(n, m, a, self._counter) for n, m, a in COUNTS]
        for name, module_name, path, make in targets:
            module = fpmods_modules[module_name]
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            raw = vars(owner).get(attr)
            if raw is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            is_classmethod = isinstance(raw, classmethod)
            wrapped = make(name, raw.__func__ if is_classmethod else raw)
            new = classmethod(wrapped) if is_classmethod else wrapped
            for namespace in ([owner] if owner_name else loaded):
                for key, value in list(vars(namespace).items()):
                    if value is raw:
                        setattr(namespace, key, new)
                        self._undo.append((namespace, key, raw))

    def uninstall(self):
        for namespace, key, raw in reversed(self._undo):
            setattr(namespace, key, raw)
        self._undo.clear()

    # ----- results

    def aggregate(self):
        """Per-name stats and per-edge call counts merged over threads."""
        stats, edges = {}, {}
        with self._lock:
            threads = list(self._threads)
        for thread_stats, thread_edges in threads:
            for name, st in thread_stats.items():
                into = self._stat(stats, name)
                into.calls += st.calls
                into.total += st.total
                into.self += st.self
                into.amount += st.amount
                if st.durations is not None:
                    into.durations.extend(st.durations)
            for key, count in thread_edges.items():
                edges[key] = edges.get(key, 0) + count
        return stats, edges


def _percentile_us(durations, q):
    """Nearest-rank percentile of durations in seconds, in microseconds."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1] * 1e6


def _ratio(a, b):
    return a / b if b else 0.0


# Per-layer metrics: name -> (unit, better, [(workload, e2e metric) it
# should move]). Values are for one traced pass; a metric of a layer the
# workload never calls is 0.
SAMPLING_MC = [("sampling", m) for m in (
    "mc_trials_per_s", "mc_threads2_trials_per_s", "mc_n12_trials_per_s")]
SAMPLING_ALL = SAMPLING_MC + [("sampling", "tower_trials_per_s")]
ISO = [("isotropic", "iso_level1_results_per_s"), ("isotropic", "iso_deep_results_per_s")]
EXACT = [("exact", "census_pairs_per_s"), ("exact", "pushforward_forms_per_s")]
WALL = [(w, "wall_s") for w in ("sampling", "isotropic", "exact")]
LINALG = [("sampling", "mc_trials_per_s"), ("sampling", "mc_n12_trials_per_s")] + ISO

LAYER_METRICS = {
    "series.new.calls": ("count", "lower", SAMPLING_ALL),
    "series.mul.calls": ("count", "lower", SAMPLING_ALL),
    "series.mul.self_s": ("s", "lower", SAMPLING_ALL),
    "linalg.rref.calls": ("count", "lower", LINALG),
    "linalg.rref.self_s": ("s", "lower", LINALG),
    "linalg.rref.p50_us": ("us", "lower", LINALG),
    "linalg.rref.p99_us": ("us", "lower", LINALG),
    "linalg.rref.cells_mean": ("cells", "lower", LINALG),
    "linalg.reduce_rows.calls": ("count", "lower", LINALG),
    "linalg.reduce_rows.self_s": ("s", "lower", LINALG),
    "linalg.nullspace.calls": ("count", "lower", LINALG),
    "linalg.nullspace.self_s": ("s", "lower", LINALG),
    "linalg.matmul.calls": ("count", "lower", LINALG),
    "linalg.matmul.self_s": ("s", "lower", LINALG),
    "linalg.nilpotent_block_sizes.calls": ("count", "lower", LINALG),
    "linalg.nilpotent_block_sizes.self_s": ("s", "lower", LINALG),
    "submodules.intersect.calls": ("count", "lower", SAMPLING_ALL),
    "submodules.intersect.self_s": ("s", "lower", SAMPLING_ALL),
    "submodules.intersect.p50_us": ("us", "lower", SAMPLING_ALL),
    "submodules.intersect.p99_us": ("us", "lower", SAMPLING_ALL),
    "submodules.intersect.linalg_share": ("ratio", "lower", SAMPLING_ALL),
    "submodules.sum_and_quotient.calls": ("count", "lower", SAMPLING_MC),
    "submodules.sum_and_quotient.self_s": ("s", "lower", SAMPLING_MC),
    "submodules.sum_and_quotient.p50_us": ("us", "lower", SAMPLING_MC),
    "submodules.sum_and_quotient.p99_us": ("us", "lower", SAMPLING_MC),
    "submodules.from_index.calls": ("count", "lower", EXACT),
    "submodules.from_index.self_s": ("s", "lower", EXACT),
    "submodules.project.calls": ("count", "lower", EXACT),
    "submodules.project.self_s": ("s", "lower", EXACT),
    "submodules.lifts.forms": ("count", "lower", EXACT),
    "probability.sample_pair.calls": ("count", "lower", SAMPLING_ALL),
    "probability.sample_pair.self_s": ("s", "lower", SAMPLING_ALL),
    "probability.sample_pair.p50_us": ("us", "lower", SAMPLING_ALL),
    "probability.sample_pair.p99_us": ("us", "lower", SAMPLING_ALL),
    "probability.monte_carlo.self_s": ("s", "lower", [("sampling", "mc_threads2_trials_per_s")]),
    "probability.tower_experiment.self_s": ("s", "lower", [("sampling", "tower_trials_per_s")]),
    "probability.collision_probability_census.self_s":
        ("s", "lower", [("exact", "census_pairs_per_s")]),
    "probability.pushforward_consistency.self_s":
        ("s", "lower", [("exact", "pushforward_forms_per_s")]),
    "pairing.enumerate_maximal_isotropic.self_s": ("s", "lower", ISO),
    "pairing.t_span.calls": ("count", "lower", ISO),
    "pairing.t_span.self_s": ("s", "lower", ISO),
    "pairing.orthogonal_complement.calls": ("count", "lower", ISO),
    "pairing.orthogonal_complement.self_s": ("s", "lower", ISO),
    "pairing.vectors.rows": ("count", "lower", ISO + [("isotropic", "peak_rss_mb")]),
    "pairing.isotropic_diagnostics.calls": ("count", "lower", ISO),
    "pairing.isotropic_diagnostics.self_s": ("s", "lower", ISO),
    "pairing.bfs.new_state_ratio": ("ratio", "higher", ISO),
    "pairing.bfs.step_us": ("us", "lower", ISO),
    "cli.run.self_s": ("s", "lower", WALL),
    "cli.render_csv.self_s": ("s", "lower", WALL),
    "cli.render_json.self_s": ("s", "lower", WALL),
    "cli.emit.self_s": ("s", "lower", WALL),
    "cli.bytes_written": ("bytes", "lower", WALL),
    "trace.overhead_ratio": ("ratio", "lower", []),  # the tracer's own cost
}

# Layers each workload is predicted never to call; the traced run reports
# whether each prediction held.
BYPASSED = {
    "sampling": ("pairing.",),
    "isotropic": ("submodules.", "probability."),
    "exact": ("linalg.",),
}


def layer_metrics(stats, overhead_ratio: float) -> dict:
    """Every LAYER_METRICS value from the aggregated stats of one traced pass."""
    empty = _Stat(True)

    def get(span):
        return stats.get(span, empty)

    states = get("pairing.orthogonal_complement").calls
    results = get("pairing.enumerate_maximal_isotropic").amount
    enumerate_s = get("pairing.enumerate_maximal_isotropic").total
    derived = {
        "submodules.intersect.linalg_share": _ratio(
            get("submodules.intersection_exponent_linalg").calls,
            get("submodules.intersect").calls),
        "pairing.bfs.new_state_ratio": _ratio(
            states + results - 1 if states else 0, get("pairing.t_span").calls),
        "pairing.bfs.step_us": _ratio(
            (enumerate_s - get("pairing.isotropic_diagnostics").total) * 1e6, states),
        "cli.bytes_written": get("cli.emit").amount,
        "trace.overhead_ratio": overhead_ratio,
    }
    values = {}
    for metric in LAYER_METRICS:
        if metric in derived:
            values[metric] = float(derived[metric])
            continue
        span, _, field = metric.rpartition(".")
        st = get(span)
        if field == "calls":
            values[metric] = float(st.calls)
        elif field == "self_s":
            values[metric] = st.self
        elif field in ("p50_us", "p99_us"):
            values[metric] = _percentile_us(st.durations or [], 0.5 if field == "p50_us" else 0.99)
        elif field == "cells_mean":
            values[metric] = _ratio(st.amount, st.calls)
        else:  # a work amount: rows, forms
            values[metric] = float(st.amount)
    return values


def bypass_report(workload: str, values: dict) -> list[tuple[str, bool]]:
    """(prediction, held) for each layer the workload should never call."""
    out = []
    for prefix in BYPASSED[workload]:
        calls = sum(v for k, v in values.items()
                    if k.startswith(prefix) and k.endswith((".calls", ".self_s", ".forms", ".rows")))
        out.append((f"zero {prefix}* calls and time on {workload}", calls == 0))
    return out


def call_tree(stats, edges) -> dict:
    """The aggregated spans as written out: per name and per parent edge."""
    return {
        "spans": {name: {"calls": st.calls, "total_s": st.total, "self_s": st.self,
                         "amount": st.amount}
                  for name, st in sorted(stats.items())},
        "edges": [{"parent": parent, "child": child, "calls": calls}
                  for (parent, child), calls in sorted(edges.items(), key=str)],
    }
