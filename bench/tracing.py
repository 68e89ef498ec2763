"""Span tracing of didbracket's public functions, installed from outside.

The package's modules import functions by name, so a function is wrapped
at every module binding that holds it (``bracketing.weighted_period_mean``,
``placebo.weighted_period_mean``, ... and ``estimation.weighted_period_mean``
itself), and methods are wrapped on their class. Each call records a span:
name, start, end, parent span and the benchmark call it belongs to. Spans
stay in memory and are written out when the run ends.

A layer's self time is its span's duration minus the time covered by its
direct child spans. Code runs in one thread, so children never overlap.

A traced name that no longer exists in the package is reported as absent
(its metrics read 0) instead of failing the run, so a change that deletes
a helper keeps the benchmark runnable.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import statistics
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

MODULES = ("cli", "io", "model", "estimation", "bracketing", "diagnostics", "placebo",
           "simulation")

PLACEBO_REASONS = ("NoLowerNeighbors", "NoUpperNeighbors", "MissingData", "ExplicitExclusion")


def _emit_counters(args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs.get("text", "")
    return {"io.emit.bytes": len(text.encode("utf-8")), "io.emit.files": 1}


def _wpm_counters(args, kwargs, result):
    group = args[1] if len(args) > 1 else kwargs["group"]
    period = args[2] if len(args) > 2 else kwargs["period"]
    return {"estimation.wpm.cells": len(group) * len(period)}


def _study_counters(args, kwargs, result):
    counts = {"placebo.attempted": len(result),
              "placebo.included": sum(r.excluded_reason is None for r in result)}
    for r in result:
        if r.excluded_reason is not None:
            key = f"placebo.excluded.{r.excluded_reason}"
            counts[key] = counts.get(key, 0) + 1
    return counts


# (span name, function name, counters from (args, kwargs, result)). Removal
# candidates (NormalTail, time_varying_scenario_check, PanelDataset.years)
# are deliberately not traced.
FUNCTIONS = (
    ("cli.main", "main", None),
    ("io.parse_panel", "parse_panel_csv", lambda a, k, r: {"io.parse_panel.rows": len(r)}),
    ("io.parse_adjacency", "parse_adjacency_csv", None),
    ("io.emit", "atomic_write_text", _emit_counters),
    ("io.serialize", "to_json", None),
    ("io.serialize", "rows_to_csv", None),
    ("io.serialize", "bracket_report_dict", None),
    ("io.serialize", "summary_text", None),
    ("io.serialize", "line_chart_svg", None),
    ("io.serialize", "histogram_svg", None),
    ("model.validate_design", "validate_design", None),
    ("estimation.wpm", "weighted_period_mean", _wpm_counters),
    ("estimation.did", "did_point", None),
    ("estimation.did", "did_se", None),
    ("estimation.wald_ci", "wald_ci", None),
    ("estimation.normal_quantile", "normal_quantile", None),
    ("bracketing.classify", "classify_candidates", None),
    ("bracketing.construct", "construct_control_groups", None),
    ("bracketing.arm_estimate", "arm_estimate", None),
    ("bracketing.full_analysis", "full_analysis", None),
    ("diagnostics.pattern_test", "pattern_test", None),
    ("diagnostics.trends_table", "relative_trends_table", None),
    ("placebo.study", "run_placebo_study", _study_counters),
    ("placebo.rank_hist", "rank_effect", None),
    ("placebo.rank_hist", "histogram_export", None),
    ("simulation.run", "verify_bracketing",
     lambda a, k, r: {"simulation.reps": r.reps}),
    ("simulation.run", "coverage_experiment",
     lambda a, k, r: {"simulation.reps": r.reps}),
)
# (span name, class name, method name)
METHODS = (
    ("model.panel_build", "PanelDataset", "__init__"),
    ("placebo.neighbors", "AdjacencyGraph", "neighbors"),
)


class CallAgg:
    """Per-call totals: span calls, inclusive and self seconds, counters."""

    def __init__(self, spans: dict, counters: dict, edges: int):
        self.spans = spans      # name -> [calls, total_s, self_s]
        self.counters = counters
        self.edges = edges

    def calls(self, name):
        return self.spans.get(name, (0, 0.0, 0.0))[0]

    def s(self, name):
        return self.spans.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name):
        return self.spans.get(name, (0, 0.0, 0.0))[2]

    def count(self, name):
        return self.counters.get(name, 0)


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    spans: tuple                        # span names the value is built from
    value: Optional[Callable] = None    # CallAgg -> float; None for run-level metrics


PER_LAYER = (
    LayerMetric("cli.main.self_s", "s", "lower", ("cli.main",), lambda a: a.self_s("cli.main")),
    LayerMetric("io.parse_panel.s", "s", "lower", ("io.parse_panel",),
                lambda a: a.s("io.parse_panel")),
    LayerMetric("io.parse_panel.rows", "count", "lower", ("io.parse_panel",),
                lambda a: a.count("io.parse_panel.rows")),
    LayerMetric("io.parse_panel.us_per_row", "us/row", "lower", ("io.parse_panel",),
                lambda a: _ratio(a.s("io.parse_panel"), a.count("io.parse_panel.rows"), 1e6)),
    LayerMetric("model.panel_build.s", "s", "lower", ("model.panel_build",),
                lambda a: a.s("model.panel_build")),
    LayerMetric("io.parse_adjacency.s", "s", "lower", ("io.parse_adjacency",),
                lambda a: a.s("io.parse_adjacency")),
    LayerMetric("io.emit.s", "s", "lower", ("io.emit",), lambda a: a.s("io.emit")),
    LayerMetric("io.emit.bytes", "bytes", "lower", ("io.emit",),
                lambda a: a.count("io.emit.bytes")),
    LayerMetric("io.emit.files", "count", "lower", ("io.emit",),
                lambda a: a.count("io.emit.files")),
    LayerMetric("io.serialize.s", "s", "lower", ("io.serialize",),
                lambda a: a.s("io.serialize")),
    LayerMetric("model.validate_design.s", "s", "lower", ("model.validate_design",),
                lambda a: a.s("model.validate_design")),
    LayerMetric("estimation.wpm.calls", "count", "lower", ("estimation.wpm",),
                lambda a: a.calls("estimation.wpm")),
    LayerMetric("estimation.wpm.self_s", "s", "lower", ("estimation.wpm",),
                lambda a: a.self_s("estimation.wpm")),
    LayerMetric("estimation.wpm.cells", "count", "lower", ("estimation.wpm",),
                lambda a: a.count("estimation.wpm.cells")),
    LayerMetric("estimation.wpm.ns_per_cell", "ns/cell", "lower", ("estimation.wpm",),
                lambda a: _ratio(a.self_s("estimation.wpm"), a.count("estimation.wpm.cells"),
                                 1e9)),
    LayerMetric("estimation.did.calls", "count", "lower", ("estimation.did",),
                lambda a: a.calls("estimation.did")),
    LayerMetric("estimation.wald_ci.calls", "count", "lower", ("estimation.wald_ci",),
                lambda a: a.calls("estimation.wald_ci")),
    LayerMetric("estimation.wald_ci.self_s", "s", "lower", ("estimation.wald_ci",),
                lambda a: a.self_s("estimation.wald_ci")),
    LayerMetric("estimation.normal_quantile.calls", "count", "lower",
                ("estimation.normal_quantile",), lambda a: a.calls("estimation.normal_quantile")),
    LayerMetric("bracketing.classify.calls", "count", "lower", ("bracketing.classify",),
                lambda a: a.calls("bracketing.classify")),
    LayerMetric("bracketing.classify.self_s", "s", "lower", ("bracketing.classify",),
                lambda a: a.self_s("bracketing.classify")),
    LayerMetric("bracketing.full_analysis.s", "s", "lower", ("bracketing.full_analysis",),
                lambda a: a.s("bracketing.full_analysis")),
    LayerMetric("bracketing.arm_estimate.self_s", "s", "lower", ("bracketing.arm_estimate",),
                lambda a: a.self_s("bracketing.arm_estimate")),
    LayerMetric("diagnostics.pattern_test.s", "s", "lower", ("diagnostics.pattern_test",),
                lambda a: a.s("diagnostics.pattern_test")),
    LayerMetric("diagnostics.trends_table.s", "s", "lower", ("diagnostics.trends_table",),
                lambda a: a.s("diagnostics.trends_table")),
    LayerMetric("placebo.neighbors.calls", "count", "lower", ("placebo.neighbors",),
                lambda a: a.calls("placebo.neighbors")),
    LayerMetric("placebo.neighbors.self_s", "s", "lower", ("placebo.neighbors",),
                lambda a: a.self_s("placebo.neighbors")),
    # Computed as calls x edges of the input graph: the work of a full edge scan.
    LayerMetric("placebo.edges_scanned", "count", "lower", ("placebo.neighbors",),
                lambda a: a.calls("placebo.neighbors") * a.edges),
    LayerMetric("placebo.study.self_s", "s", "lower", ("placebo.study",),
                lambda a: a.self_s("placebo.study")),
    LayerMetric("placebo.included_ratio", "ratio", "higher", ("placebo.study",),
                lambda a: _ratio(a.count("placebo.included"), a.count("placebo.attempted"))),
    *(
        LayerMetric(f"placebo.excluded.{reason}", "count", "lower", ("placebo.study",),
                    lambda a, key=f"placebo.excluded.{reason}": a.count(key))
        for reason in PLACEBO_REASONS
    ),
    LayerMetric("placebo.rank_hist.s", "s", "lower", ("placebo.rank_hist",),
                lambda a: a.s("placebo.rank_hist")),
    LayerMetric("simulation.reps", "count", "lower", ("simulation.run",),
                lambda a: a.count("simulation.reps")),
    LayerMetric("simulation.rep_us", "us", "lower", ("simulation.run",),
                lambda a: _ratio(a.s("simulation.run"), a.count("simulation.reps"), 1e6)),
    LayerMetric("simulation.run.self_s", "s", "lower", ("simulation.run",),
                lambda a: a.self_s("simulation.run")),
    LayerMetric("trace.overhead_s", "s", "lower", ()),
    LayerMetric("trace.untraced_call_s_p50", "s", "lower", ()),
    LayerMetric("trace.traced_call_s_p50", "s", "lower", ()),
    LayerMetric("trace.spans_per_call", "count", "lower", ()),
    LayerMetric("trace.absent", "count", "lower", ()),
)


class Tracer:
    """Span-recording wrappers for ``package``, kept in flat arrays.

    The wrappers are built once; ``install`` puts them in place and
    ``uninstall`` restores the original bindings, so tracing can be switched
    on and off around single calls.
    """

    def __init__(self, package):
        self.names = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.name_ids = array("q")
        self.call_ids = array("q")
        self.call_id = -1
        self.stack = []                 # [span id, seconds covered by children]
        self.spans = {}
        self.counters = {}
        self.patches = []               # (owner, attribute, original, wrapper)
        self.found = set()              # span names with at least one binding
        self.absent = []                # "span:function" with no binding left
        self._build(package)

    def _wrap(self, fn, name, counters):
        tracer = self
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(tracer.starts)
            tracer.parents.append(tracer.stack[-1][0] if tracer.stack else -1)
            tracer.name_ids.append(name_id)
            tracer.call_ids.append(tracer.call_id)
            tracer.ends.append(0.0)
            frame = [span_id, 0.0]
            tracer.stack.append(frame)
            start = perf_counter()
            tracer.starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.ends[span_id] = end
                duration = end - start
                if tracer.stack:
                    tracer.stack[-1][1] += duration
                totals = tracer.spans.setdefault(name, [0, 0.0, 0.0])
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[1]
            if counters is not None:
                for key, value in counters(args, kwargs, result).items():
                    tracer.counters[key] = tracer.counters.get(key, 0) + value
            return result

        return traced

    def _build(self, package) -> None:
        """Wrap every binding of the traced names in ``package``'s modules."""
        modules = [getattr(package, m) for m in MODULES if hasattr(package, m)]
        for name, attribute, counters in FUNCTIONS:
            wrapped = {}
            for module in modules:
                fn = module.__dict__.get(attribute)
                if not inspect.isfunction(fn):
                    continue
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self._wrap(fn, name, counters)
                self.patches.append((module, attribute, fn, wrapped[id(fn)]))
            if wrapped:
                self.found.add(name)
            else:
                self.absent.append(f"{name}:{attribute}")
        for name, class_name, method in METHODS:
            classes = {id(c): c for m in modules
                       if inspect.isclass(c := m.__dict__.get(class_name))}
            owners = [c for c in classes.values() if inspect.isfunction(c.__dict__.get(method))]
            for cls in owners:
                fn = cls.__dict__[method]
                self.patches.append((cls, method, fn, self._wrap(fn, name, None)))
            if owners:
                self.found.add(name)
            else:
                self.absent.append(f"{name}:{class_name}.{method}")

    def install(self) -> None:
        for owner, attribute, _, wrapper in self.patches:
            setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original, _ in self.patches:
            setattr(owner, attribute, original)

    def begin_call(self) -> None:
        self.call_id += 1
        self.spans = {}
        self.counters = {}

    def end_call(self, edges: int) -> CallAgg:
        return CallAgg(self.spans, self.counters, edges)

    def write_spans(self, path) -> int:
        """Write all spans as gzipped CSV; times relative to the first span."""
        origin = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", encoding="utf-8", newline="") as fh:
            fh.write("call_id,span_id,parent_id,name,start_s,end_s\n")
            for i in range(len(self.starts)):
                fh.write(f"{self.call_ids[i]},{i},{self.parents[i]},"
                         f"{self.names[self.name_ids[i]]},{self.starts[i] - origin:.9f},"
                         f"{self.ends[i] - origin:.9f}\n")
        return len(self.starts)


def layer_metrics(aggs, untraced_s, traced_s, tracer: Tracer) -> tuple:
    """Per-layer values (median over traced calls) and the absent metric names.

    ``untraced_s`` and ``traced_s`` are the times of the interleaved untraced
    and traced calls, in reference seconds; the overhead is the difference
    of their medians.
    """
    values, absent = {}, []
    for metric in PER_LAYER:
        if metric.value is None:
            continue
        if any(span not in tracer.found for span in metric.spans):
            absent.append(metric.name)
            values[metric.name] = 0.0
        else:
            values[metric.name] = statistics.median(metric.value(a) for a in aggs)
    untraced_p50 = statistics.median(untraced_s)
    traced_p50 = statistics.median(traced_s)
    values["trace.overhead_s"] = traced_p50 - untraced_p50
    values["trace.untraced_call_s_p50"] = untraced_p50
    values["trace.traced_call_s_p50"] = traced_p50
    values["trace.spans_per_call"] = len(tracer.starts) / len(aggs)
    values["trace.absent"] = len(absent)
    return values, absent
