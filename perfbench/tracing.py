"""Spans around the calls into each layer of ``proprisk``, recorded from
outside the package.

``Tracer.installed()`` replaces every module attribute of the package that
refers to one of the traced public functions with a wrapper, so calls that
the package makes through its own module attributes (``study.fit_ppr``,
``bootstrap.nppr_fit``, ``nppr.kaplan_meier``, ...) are seen too, and puts
the originals back on exit. Spans stay in memory; self time is a span's
duration less the time of its direct child spans.
"""
from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

# span name -> (module, function); the span name is "<layer>.<function>"
SPANNED = {
    "reporting.read_dataset_csv": ("proprisk.reporting", "read_dataset_csv"),
    "reporting.build_report": ("proprisk.reporting", "build_report"),
    "reporting.emit_report": ("proprisk.reporting", "emit_report"),
    "survival.validate_dataset": ("proprisk.survival", "validate_dataset"),
    "survival.kaplan_meier": ("proprisk.survival", "kaplan_meier"),
    "nppr.nppr_fit": ("proprisk.nppr", "nppr_fit"),
    "nppr.build_event_time_set": ("proprisk.nppr", "build_event_time_set"),
    "nppr.pointwise_log_rr": ("proprisk.nppr", "pointwise_log_rr"),
    "nppr.nppr_point_estimate": ("proprisk.nppr", "nppr_point_estimate"),
    "bootstrap.percentile_bootstrap": ("proprisk.bootstrap", "percentile_bootstrap"),
    "models.fit_ppr": ("proprisk.models", "fit_ppr"),
    "models.cox_two_group": ("proprisk.models", "cox_two_group"),
    "simulate.simulate_dataset": ("proprisk.simulate", "simulate_dataset"),
    "simulate.load_grid": ("proprisk.simulate", "load_grid"),
    "study.run_scenario": ("proprisk.study", "run_scenario"),
}
# called too often for a span each; only counted
COUNTED = {"models.eu_log_likelihood": ("proprisk.models", "eu_log_likelihood")}


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 at the top
    start: float
    end: float = 0.0
    child_s: float = 0.0
    error: str = ""


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def reset(self):
        self.spans, self.counts, self._stack = [], defaultdict(int), []

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else -1, time.perf_counter())
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if span.parent >= 0:
                    self.spans[span.parent].child_s += span.end - span.start
            self._observe(name, args, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe(self, name, args, result):
        """Counts read off a layer's return value."""
        c = self.counts
        if name == "bootstrap.percentile_bootstrap":
            b = result.n_effective + result.n_failed
            c["bootstrap.resamples"] += b
            c["bootstrap.failed_resamples"] += result.n_failed
            c["bootstrap.rows_resampled"] += b * len(args[0])
        elif name == "models.fit_ppr":
            c["models.ppr_not_converged"] += not result.converged
            c["models.ppr_interval_available"] += result.ci_available
        elif name == "study.run_scenario":
            c["study.ppr_excluded"] += result.n_ppr_excluded

    @contextlib.contextmanager
    def installed(self):
        """Wrap every package-level reference to a traced function."""
        wrappers = {}
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for name, (module, attr) in table.items():
                fn = getattr(sys.modules[module], attr)
                wrappers[id(fn)] = (fn, make(name, fn))
        patched = []
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "proprisk" or modname.startswith("proprisk.")):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)][1])
        try:
            yield self
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)

    def totals(self):
        """Per span name: total seconds, self seconds, calls, errors by type."""
        out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "errors": defaultdict(int)})
        for span in self.spans:
            t = out[span.name]
            dur = span.end - span.start
            t["s"] += dur
            t["self_s"] += dur - span.child_s
            t["calls"] += 1
            if span.error:
                t["errors"][span.error] += 1
        return out

    def child_time(self, parent_name, child_name):
        """Seconds of ``child_name`` spans directly under ``parent_name`` spans."""
        return sum(
            s.end - s.start
            for s in self.spans
            if s.name == child_name and s.parent >= 0 and self.spans[s.parent].name == parent_name
        )

    def dump(self):
        return [
            {"name": s.name, "parent": s.parent, "start": s.start, "end": s.end, "error": s.error}
            for s in self.spans
        ]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced round (times in seconds)."""
    tot = tracer.totals()  # zeros for a span name that never ran
    c = tracer.counts

    def s(name):
        return tot[name]["s"]

    def self_s(name):
        return tot[name]["self_s"]

    def calls(name):
        return tot[name]["calls"]

    return {
        "reporting.read_dataset_csv_s": s("reporting.read_dataset_csv"),
        "reporting.emit_report_s": s("reporting.build_report") + s("reporting.emit_report"),
        "survival.validate_dataset_s": s("survival.validate_dataset"),
        "survival.kaplan_meier_s": s("survival.kaplan_meier"),
        "survival.kaplan_meier_calls": calls("survival.kaplan_meier"),
        "nppr.nppr_fit_s": s("nppr.nppr_fit"),
        "nppr.nppr_fit_calls": calls("nppr.nppr_fit"),
        "nppr.estimation_failures": tot["nppr.nppr_fit"]["errors"]["EstimationError"],
        "nppr.event_time_set_s": s("nppr.build_event_time_set"),
        "nppr.pointwise_log_rr_s": s("nppr.pointwise_log_rr"),
        "nppr.point_estimate_s": s("nppr.nppr_point_estimate"),
        "nppr.self_s": self_s("nppr.nppr_fit"),
        "bootstrap.percentile_bootstrap_s": s("bootstrap.percentile_bootstrap"),
        "bootstrap.resamples": c["bootstrap.resamples"],
        "bootstrap.failed_resamples": c["bootstrap.failed_resamples"],
        "bootstrap.rows_resampled": c["bootstrap.rows_resampled"],
        "bootstrap.resample_fit_s": tracer.child_time("bootstrap.percentile_bootstrap", "nppr.nppr_fit"),
        "bootstrap.self_s": self_s("bootstrap.percentile_bootstrap"),
        "models.fit_ppr_s": s("models.fit_ppr"),
        "models.fit_ppr_calls": calls("models.fit_ppr"),
        "models.eu_loglik_calls": c["models.eu_log_likelihood"],
        "models.ppr_not_converged": c["models.ppr_not_converged"],
        "models.ppr_interval_available": c["models.ppr_interval_available"],
        "models.cox_two_group_s": s("models.cox_two_group"),
        "simulate.simulate_dataset_s": s("simulate.simulate_dataset"),
        "study.run_scenario_s": s("study.run_scenario"),
        "study.self_s": self_s("study.run_scenario"),
        "study.ppr_excluded": c["study.ppr_excluded"],
    }
