"""In-memory span recorder and the layer table of the traced run.

The traced run measures each layer from outside: it replaces the module
attributes through which the program's callers reach a layer's public
functions with thin wrappers that open a span around the call. Nothing under
``src/`` is edited; :func:`install` returns a function that puts every
original attribute back.

A span is ``(name, layer, start, end, parent, run)``: ``parent`` is the
index of the enclosing span (``-1`` for a root) and ``run`` names the unit of
work the span belongs to (``"setup"`` or ``"unit<k>"``). Self time is a
span's duration minus the part of its interval that its children cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

#: Registry backends that get a layer of their own; any other backend name a
#: ``registry.solve`` call returns is booked under ``solver.registry.other``.
REGISTRY_BACKENDS = ("greedy", "heuristic", "bnb")

#: Layer name -> the (module, attribute path) pairs its callers resolve.
#: A function imported by name into several modules is listed once per
#: importing module, because each module holds its own reference.
LAYER_TARGETS: dict[str, tuple[tuple[str, str], ...]] = {
    "cluster": (
        ("repro.simulator.cdn", "build_cdn_fleet"),
        ("repro.experiments.planetary_sweep", "build_planetary_substrate"),
    ),
    "network": (
        ("repro.simulator.cdn", "build_latency_matrix"),
        ("repro.experiments.planetary_sweep", "build_latency_matrix_fast"),
    ),
    "carbon": (
        ("repro.carbon.synthetic", "SyntheticTraceGenerator.generate_set"),
    ),
    "workloads": (
        ("repro.workloads.generator", "ApplicationGenerator.generate_batch"),
        ("repro.serving.loadgen", "LoadGenerator.events"),
    ),
    "core.problem": (
        ("repro.core.problem", "PlacementProblem.build"),
        ("repro.solver.compile", "ScenarioCompilation.__init__"),
        ("repro.solver.compile", "ScenarioCompilation.build_problem"),
        ("repro.simulator.cdn", "CDNSimulator.epoch_problem"),
    ),
    "core.policies": (
        ("repro.core.policies.base", "PlacementPolicy.timed_place"),
    ),
    "solver.registry": (
        ("repro.solver.registry", "solve"),
        ("repro.solver.hierarchy", "registry_solve"),
    ),
    "solver.compile.kernel": (
        ("repro.solver.compile", "greedy_fill"),
        ("repro.solver.backends.heuristic", "greedy_fill"),
        ("repro.solver.backends.ortools_exact", "greedy_fill"),
        ("repro.solver.hierarchy", "greedy_fill"),
    ),
    "solver.compile.decode": (
        ("repro.solver.compile", "assignment_to_solution"),
        ("repro.solver.backend", "assignment_to_solution"),
    ),
    "solver.lp_relaxation": (
        ("repro.solver.branch_and_bound", "solve_lp_relaxation"),
        ("repro.solver.backends.lp_rounding", "solve_lp_relaxation"),
    ),
    "solver.hierarchy": (
        ("repro.solver.hierarchy", "build_region_plan"),
        ("repro.solver.hierarchy", "solve_hierarchical"),
        ("repro.experiments.planetary_sweep", "build_region_plan"),
        ("repro.experiments.planetary_sweep", "solve_hierarchical"),
    ),
    "core.validation": (
        ("repro.core.validation", "validate_solution"),
        ("repro.simulator.cdn", "validate_solution"),
        ("repro.core.incremental", "validate_solution"),
        ("repro.serving.service", "validate_solution"),
    ),
    "simulator.cdn": (
        ("repro.simulator.cdn", "CDNSimulator.run"),
    ),
    "simulator.cdn.records": (
        ("repro.simulator.cdn", "build_epoch_record"),
        ("repro.serving.service", "build_epoch_record"),
    ),
    "core.incremental": (
        ("repro.core.incremental", "IncrementalPlacer.place_batch"),
        ("repro.core.incremental", "IncrementalPlacer.resolve_epoch"),
    ),
    "serving.feed": (
        ("repro.serving.feed", "ResilientCarbonFeed.refresh"),
    ),
    "serving.service": (
        ("repro.serving.service", "PlacementService.run_live"),
    ),
    "simulator.engine": (
        ("repro.simulator.engine", "SimulationEngine.run"),
    ),
}

#: The benchmark's own root span around each timed unit of work; its self
#: time is whatever the unit spends outside every wrapped call.
ROOT_LAYER = "bench"


def span_layers() -> list[str]:
    """Every layer a span can be booked under, in report order."""
    layers = []
    for layer in LAYER_TARGETS:
        if layer == "solver.registry":
            layers += [f"solver.registry.{b}" for b in REGISTRY_BACKENDS]
            layers.append("solver.registry.other")
        else:
            layers.append(layer)
    return layers + [ROOT_LAYER]


@dataclass
class Span:
    """One timed call: where it sits in the tree and which unit it served."""

    name: str
    layer: str
    start: float
    end: float
    parent: int
    run: str
    error: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


def merged_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once, so the result is never negative.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            parent = spans[span.parent]
            children[span.parent].append(
                (max(span.start, parent.start), min(span.end, parent.end)))
    return [span.duration - merged_length(children.get(i, ()))
            for i, span in enumerate(spans)]


def layer_totals(spans: list[Span],
                 include: Callable[[Span], bool] = lambda span: True
                 ) -> dict[str, dict[str, float]]:
    """Per layer: ``calls``, ``busy_s`` (union of its spans) and ``self_s``,
    over the spans ``include`` accepts (self times use the whole tree)."""
    selfs = self_times(spans)
    intervals: dict[str, list[tuple[float, float]]] = defaultdict(list)
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for span, self_s in zip(spans, selfs):
        if not include(span):
            continue
        entry = totals[span.layer]
        entry["calls"] += 1
        entry["self_s"] += self_s
        intervals[span.layer].append((span.start, span.end))
    for layer, ivs in intervals.items():
        totals[layer]["busy_s"] = merged_length(ivs)
    return dict(totals)


class Tracer:
    """Records spans in memory; one tracer per traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.run = "setup"
        #: Counters recorded at the same boundaries as the spans.
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextmanager
    def span(self, layer: str, name: str | None = None):
        """Open a span; yields it so the caller may rename its layer."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = Span(name=name or layer, layer=layer, start=self.clock(),
                    end=0.0, parent=parent, run=self.run)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        except BaseException:
            span.error = True
            raise
        finally:
            span.end = self.clock()
            self._stack.pop()

    def wrap(self, fn: Callable, layer: str, name: str,
             observe: Callable | None = None) -> Callable:
        """``fn`` with a span around every call; ``observe(span, args,
        result)`` may count what the call returned or rename the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer, name) as span:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(self, span, args, result)
                return result

        return traced

    def dump(self, path: Path, header: dict) -> None:
        """Write the header line and one compact JSON line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write(json.dumps(header, sort_keys=True) + "\n")
            for s in self.spans:
                out.write(json.dumps([s.name, s.layer, s.start, s.end,
                                      s.parent, s.run, s.error]) + "\n")


# -- counters read off the results of wrapped calls ---------------------------

def _observe_solve(tracer: Tracer, span: Span, args, solution) -> None:
    backend = solution.backend_name
    span.layer = (f"solver.registry.{backend}" if backend in REGISTRY_BACKENDS
                  else "solver.registry.other")
    c = tracer.counters
    c["solutions"] += 1
    c["truncated"] += bool(solution.construction_truncated)
    c["warm_hints_dropped"] += solution.warm_hints_dropped
    if solution.wave_count is not None:
        c["wave_count"] += solution.wave_count
    if solution.revalidation_rate is not None:
        c["revalidation_sum"] += solution.revalidation_rate
        c["revalidation_n"] += 1


def _observe_batch(tracer: Tracer, span: Span, args, batch) -> None:
    tracer.counters["apps"] += len(batch)
    tracer.counters["classes"] += batch.n_classes


def _observe_place_batch(tracer: Tracer, span: Span, args, solution) -> None:
    batch = args[1] if len(args) > 1 else None
    if hasattr(batch, "n_classes"):
        _observe_batch(tracer, span, args, batch)


def _observe_hierarchy(tracer: Tracer, span: Span, args, outcome) -> None:
    if not hasattr(outcome, "n_spilled"):  # build_region_plan
        return
    c = tracer.counters
    c["hier_apps"] += len(outcome.assignment)
    c["hier_spilled"] += outcome.n_spilled
    c["hier_gap_g"] += outcome.objective_gap
    c["hier_solves"] += 1


def _observe_refresh(tracer: Tracer, span: Span, args, samples) -> None:
    tracer.counters["feed_fallbacks"] += sum(
        1 for s in samples.values() if s.source != "live")


def _observe_engine(tracer: Tracer, span: Span, args, n_events) -> None:
    tracer.counters["engine_events"] += n_events


_OBSERVERS: dict[tuple[str, str], Callable] = {
    ("solver.registry", "solve"): _observe_solve,
    ("solver.registry", "registry_solve"): _observe_solve,
    ("workloads", "ApplicationGenerator.generate_batch"): _observe_batch,
    ("core.incremental", "IncrementalPlacer.place_batch"): _observe_place_batch,
    ("solver.hierarchy", "solve_hierarchical"): _observe_hierarchy,
    ("serving.feed", "ResilientCarbonFeed.refresh"): _observe_refresh,
    ("simulator.engine", "SimulationEngine.run"): _observe_engine,
}


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target of :data:`LAYER_TARGETS`; returns the undo function."""
    undo: list[tuple[object, str, object]] = []
    for layer, targets in LAYER_TARGETS.items():
        for module_name, path in targets:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            observe = _OBSERVERS.get((layer, path))
            name = f"{module_name}.{path}"
            # A registry span is re-booked under its backend once the call
            # returns; one that raises stays under ``other``.
            span_layer = ("solver.registry.other" if layer == "solver.registry"
                          else layer)
            if isinstance(raw, classmethod):
                new = classmethod(tracer.wrap(raw.__func__, span_layer, name, observe))
            else:
                new = tracer.wrap(raw, span_layer, name, observe)
            undo.append((owner, attr, raw))
            setattr(owner, attr, new)

    def restore() -> None:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)

    return restore
