"""Spans and work counters recorded around the package's public functions.

The package imports names module by module (``from .integrate import
simulate`` gives ``analysis.simulate`` and ``cli.simulate`` references of
their own), so a function is replaced in every ``ecoopinion`` module whose
attribute still points at the original object, and restored from the same
list afterwards.

A ``Tracer`` built with ``record_spans=False`` only counts; it is the counting
pass of an untraced run. With ``record_spans=True`` it also keeps one span
(name, start, end, parent) per call in memory.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# Every RHS_SAMPLE_EVERY-th evaluator call keeps its arguments, so the
# evaluator can be timed afterwards on states the workload really visits.
RHS_SAMPLE_EVERY = 997
RHS_SAMPLE_CAP = 2048

BISECT = "analysis.threshold_bisect"
CONFIG_SPANS = ("config.load_config", "config.parse_config")

# (module, attribute, span name); a span name of None means counter only.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("config", "load_config", "config.load_config"),
    ("config", "parse_config", "config.parse_config"),
    ("analysis", "find_fixed_points", "analysis.find_fixed_points"),
    ("analysis", "basin_scan", "analysis.basin_scan"),
    ("analysis", "threshold_bisect", BISECT),
    ("analysis", "nearest_fixed_point", None),
    ("integrate", "simulate", "integrate.simulate"),
    ("svgchart", "trajectory_svg", "svgchart.render"),
    ("dynamics", "make_rhs", None),
)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ecoopinion" or name.startswith("ecoopinion."))]


class Tracer:
    """Wraps the package's layer boundaries while installed."""

    def __init__(self, record_spans: bool):
        self.record_spans = record_spans
        self.spans: list[list] = []      # [name, start_ns, end_ns, parent index]
        self.open_spans: list[int] = []
        self.open_names: list[str] = []
        self.counts: Counter = Counter()
        self.rhs_cell = [0]
        self.rhs_states: list[tuple] = []
        self._patched: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = _package_modules()
        label_radius = sys.modules["ecoopinion.analysis"].LABEL_RADIUS
        for modname, attr, span_name in TARGETS:
            original = getattr(sys.modules["ecoopinion." + modname], attr)
            if attr == "make_rhs":
                replacement = self._make_rhs(original)
            elif attr == "nearest_fixed_point":
                replacement = self._nearest(original, label_radius)
            else:
                replacement = self._span(span_name, original, self._after(attr))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, replacement)
                        self._patched.append((module, key, original))

    def remove(self) -> None:
        while self._patched:
            module, key, original = self._patched.pop()
            setattr(module, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def snapshot(self) -> Counter:
        """Counters so far, RHS evaluations included."""
        counts = Counter(self.counts)
        counts["rhs_evals"] = self.rhs_cell[0]
        return counts

    # -- wrappers ---------------------------------------------------------

    def root(self, name: str, fn, *args):
        """Run fn(*args) as a root span (or plain call when counting only)."""
        return self._span(name, fn, None)(*args)

    def _span(self, name, fn, after):
        tracer = self
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            names = tracer.open_names
            if tracer.record_spans:
                spans = tracer.spans
                stack = tracer.open_spans
                index = len(spans)
                span = [name, 0, 0, stack[-1] if stack else -1]
                spans.append(span)
                stack.append(index)
                names.append(name)
                span[1] = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = clock()
                    stack.pop()
                    names.pop()
            else:
                names.append(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    names.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _after(self, attr):
        counts = self.counts
        names = self.open_names

        if attr == "simulate":
            def after(args, kwargs, trajectory):
                scenario = args[0] if args else kwargs["scenario"]
                counts["simulate_calls"] += 1
                counts["samples"] += len(trajectory.times)
                # simulate stamps sample k at exactly k * dt and always keeps
                # the final state, so the last time gives the step count.
                counts["steps"] += round(trajectory.times[-1] / scenario.settings.dt)
                if BISECT in names:
                    counts["bisect_sims"] += 1
            return after
        if attr == "find_fixed_points":
            def after(args, kwargs, records):
                counts["fixed_point_calls"] += 1
                counts["fixed_points"] += len(records)
            return after
        return None

    def _nearest(self, fn, label_radius):
        counts = self.counts

        def nearest(*args, **kwargs):
            record, dist = fn(*args, **kwargs)
            counts["label_attempts"] += 1
            if record is not None and dist <= label_radius:
                counts["labels_resolved"] += 1
            return record, dist

        return nearest

    def _make_rhs(self, fn):
        tracer = self
        cell = self.rhs_cell

        def make_rhs(*args, **kwargs):
            f = fn(*args, **kwargs)
            tracer.counts["make_rhs_calls"] += 1
            if not tracer.record_spans:
                def rhs(x, n, y):
                    cell[0] += 1
                    return f(x, n, y)
                return rhs
            states = tracer.rhs_states

            def rhs(x, n, y):
                cell[0] += 1
                if cell[0] % RHS_SAMPLE_EVERY == 0 and len(states) < RHS_SAMPLE_CAP:
                    states.append((f, x, n, y))
                return f(x, n, y)
            return rhs

        return make_rhs


def self_times(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def check_nesting(spans) -> list[str]:
    """Problems with span structure: children outside their parent's
    interval, or negative self time."""
    problems = []
    for index, (name, start, end, parent) in enumerate(spans):
        if end < start:
            problems.append(f"span {index} ({name}) ends before it starts")
        if parent >= 0:
            _, pstart, pend, _ = spans[parent]
            if start < pstart or end > pend:
                problems.append(f"span {index} ({name}) lies outside its parent")
    if any(t < 0 for t in self_times(spans)):
        problems.append("negative self time")
    return problems


def summarize(spans):
    """Per-name inclusive and self nanoseconds, and the total duration of the
    root spans."""
    inclusive: Counter = Counter()
    self_ns: Counter = Counter()
    roots = 0
    for (name, start, end, parent), t_self in zip(spans, self_times(spans)):
        inclusive[name] += end - start
        self_ns[name] += t_self
        if parent < 0:
            roots += end - start
    return inclusive, self_ns, roots


def config_loads(spans) -> tuple[int, int]:
    """Count and inclusive nanoseconds of config calls not made from inside
    another config call."""
    calls = total = 0
    for name, start, end, parent in spans:
        if name in CONFIG_SPANS and (parent < 0 or spans[parent][0] not in CONFIG_SPANS):
            calls += 1
            total += end - start
    return calls, total
