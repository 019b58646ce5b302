"""Tests of the benchmark's own code: span arithmetic, the metric spec, and
failure counting. Run from the repository root::

    python3 perfbench/selftest.py

The file is deliberately not named ``test_*.py``, so the repository's own
test suite does not collect it.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

import run  # noqa: E402
from scenarios import UnitOutcome, Workload  # noqa: E402
from spans import Span, Tracer, layer_totals, merged_length, self_times  # noqa: E402


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # root [0, 10] > mid [1, 7] > leaf [2, 5]
        spans = [Span("root", "a", 0.0, 10.0, -1, "u"),
                 Span("mid", "b", 1.0, 7.0, 0, "u"),
                 Span("leaf", "c", 2.0, 5.0, 1, "u")]
        self.assertEqual(self_times(spans), [4.0, 3.0, 3.0])

    def test_sibling_spans(self):
        # Two children of one root: [1, 3] and [4, 8]; the root keeps 4 of 10.
        spans = [Span("root", "a", 0.0, 10.0, -1, "u"),
                 Span("x", "b", 1.0, 3.0, 0, "u"),
                 Span("y", "b", 4.0, 8.0, 0, "u")]
        self.assertEqual(self_times(spans), [4.0, 2.0, 4.0])
        totals = layer_totals(spans)
        self.assertEqual(totals["b"], {"calls": 2, "busy_s": 6.0, "self_s": 6.0})

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [Span("root", "a", 0.0, 10.0, -1, "u"),
                 Span("x", "b", 2.0, 6.0, 0, "u"),
                 Span("y", "b", 4.0, 12.0, 0, "u")]
        # Children cover [2, 10] of the root once: 8 s.
        self.assertEqual(self_times(spans)[0], 2.0)
        self.assertEqual(merged_length([(0, 1), (0.5, 2), (3, 4), (4, 4)]), 3.0)

    def test_tracer_records_the_tree(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("outer"):
            clock.now = 1.0
            with tracer.span("inner"):
                clock.now = 3.0
            clock.now = 4.0
        self.assertEqual([(s.layer, s.start, s.end, s.parent) for s in tracer.spans],
                         [("outer", 0.0, 4.0, -1), ("inner", 1.0, 3.0, 0)])
        self.assertEqual(self_times(tracer.spans), [2.0, 2.0])


class SpecTest(unittest.TestCase):
    def spec(self, n_end_to_end: int = 2, n_per_layer: int = 1) -> dict:
        e2e = [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
        e2e += [{"name": f"m{i}", "unit": "ms", "better": "lower", "bound": 0.1}
                for i in range(n_end_to_end - 1)]
        return {
            "command": ["python3", "perfbench/run.py"], "paths": ["perfbench"],
            "run_seconds": 10,
            "workloads": [{"name": "a", "why": "x"}, {"name": "b", "why": "y"}],
            "end_to_end": e2e,
            "per_layer": [{"name": f"layer{i}.calls", "unit": "count", "better": "lower"}
                          for i in range(n_per_layer)],
        }

    def test_benchmark_json_is_valid(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(run.validate_spec(spec), [])

    def test_metric_name_pattern(self):
        for good in ("setup_s", "solver.compile.row_bytes", "a-b.c_d", "9x"):
            self.assertTrue(run.NAME_RE.fullmatch(good), good)
        for bad in ("", "has space", "slash/name", "colon:x", "-lead", "x" * 65):
            self.assertFalse(run.NAME_RE.fullmatch(bad), bad)
        spec = self.spec()
        spec["per_layer"][0]["name"] = "bad name"
        self.assertTrue(any("bad name" in p for p in run.validate_spec(spec)))

    def test_metric_count_limits(self):
        self.assertEqual(run.validate_spec(self.spec(16, 128)), [])
        self.assertTrue(run.validate_spec(self.spec(17, 1)))
        self.assertTrue(run.validate_spec(self.spec(2, 129)))

    def test_bound_and_setup_rules(self):
        spec = self.spec()
        spec["end_to_end"][1]["bound"] = 0.3
        self.assertTrue(run.validate_spec(spec))
        spec = self.spec()
        spec["end_to_end"] = spec["end_to_end"][1:]
        self.assertTrue(run.validate_spec(spec))


class FlakyWorkload(Workload):
    """Units of 2 decisions over 10 apps; the units listed in ``fail`` raise."""

    name = "flaky"

    def __init__(self, fail: set[int], tracer: Tracer | None = None) -> None:
        self.fail = fail
        self.calls = 0
        self.tracer = tracer

    def _decide(self) -> int:
        self.calls += 1
        if self.calls - 1 in self.fail:
            raise RuntimeError("solver blew up")
        return 8

    def run_unit(self, variant):
        decide = self._decide
        if self.tracer is not None:
            decide = self.tracer.wrap(decide, "solver", "decide")
        return decide()

    def outcome(self, placed, wall_s, variant):
        return UnitOutcome(wall_s=max(wall_s, 1e-3), decision_s=[wall_s],
                           resolve_s=[], decisions=2, failed_decisions=0,
                           apps=10, placed=placed, carbon_g=1.0, carbon_apps=placed,
                           latency_increase_ms=1.0, digest="d")

    def attempts(self, variant):
        return 2, 10


class FailureCountingTest(unittest.TestCase):
    def test_raising_unit_is_counted_and_the_run_goes_on(self):
        outcomes = run.measure(FlakyWorkload(fail={1}), seconds=0.0)
        outcomes += run.measure(FlakyWorkload(fail={0, 1}), seconds=0.0)
        self.assertEqual([o.failed_decisions for o in outcomes], [0, 2, 2, 2])
        self.assertEqual(sum(o.apps for o in outcomes), 40)
        self.assertEqual(sum(o.placed for o in outcomes), 8)
        metrics = run.end_to_end(outcomes, [0.5], n_variants=4)
        self.assertEqual(metrics["placed_frac"], 8 / 40)
        errors = run.output_errors(outcomes)
        self.assertEqual(sum("RuntimeError" in e for e in errors), 3)

    def test_wrapped_call_that_raises_closes_its_span(self):
        tracer = Tracer()
        outcomes = run.measure(FlakyWorkload(fail={0}, tracer=tracer),
                               seconds=0.0, tracer=tracer)
        self.assertEqual([o.failed_decisions for o in outcomes], [2, 0])
        roots = [s for s in tracer.spans if s.layer == "bench"]
        inner = [s for s in tracer.spans if s.layer == "solver"]
        self.assertEqual([s.error for s in roots], [True, False])
        self.assertEqual([s.error for s in inner], [True, False])
        self.assertEqual([s.run for s in inner], ["unit0", "unit1"])
        self.assertTrue(all(s.end >= s.start for s in tracer.spans))
        self.assertEqual(tracer._stack, [])


if __name__ == "__main__":
    unittest.main()
