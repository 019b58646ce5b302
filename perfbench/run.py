"""The placement benchmark: one command, four workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload cdn_year --seed 1 --seconds 20 --trace 0

It builds the workload's substrate and service (``setup_s``, the median of
several set-ups), repeats the workload's unit of work until ``--seconds``
of measured time are used, checks every unit's output, and prints as its
last line one JSON object: ``correct``, ``attempted`` and ``failed``
(placement decisions) and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` a second,
traced pass follows the untraced one and the metrics are the per-layer
ones, and the spans are written to ``.perfbench/``. The line before the
result holds the environment fingerprint, the sample counts and the
placement digest. A failed check exits with code 1; a tree without the
program's sources exits with code 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
# One thread per run: native math libraries read these when first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

#: Set-ups per run, ``setup_s`` being their median: at least the minimum,
#: then more while the set-up budget lasts, up to the maximum.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 15
SETUP_BUDGET_S = 2.0

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
             "per_layer"}


def validate_spec(spec: dict) -> list[str]:
    """Problems with a ``BENCHMARK.json`` document (empty when valid)."""
    problems = []
    if set(spec) != SPEC_KEYS:
        problems.append(f"keys {sorted(spec)} != {sorted(SPEC_KEYS)}")
        return problems
    limits = {"workloads": (2, 8), "end_to_end": (1, 16), "per_layer": (1, 128)}
    names: set[str] = set()
    for section, (lo, hi) in limits.items():
        entries = spec[section]
        if not lo <= len(entries) <= hi:
            problems.append(f"{section} has {len(entries)} entries, "
                            f"allowed {lo}..{hi}")
        for entry in entries:
            name = entry.get("name", "")
            if not NAME_RE.fullmatch(name):
                problems.append(f"{section}: bad name {name!r}")
            if name in names:
                problems.append(f"{section}: name {name!r} used twice")
            names.add(name)
            if section == "workloads":
                expected = {"name", "why"}
            else:
                expected = {"name", "unit", "better"} | (
                    {"bound"} if section == "end_to_end" else set())
                if not UNIT_RE.fullmatch(entry.get("unit", "")):
                    problems.append(f"{section}: bad unit for {name!r}")
                if entry.get("better") not in ("lower", "higher"):
                    problems.append(f"{section}: bad 'better' for {name!r}")
            if set(entry) != expected:
                problems.append(f"{section}: {name!r} keys {sorted(entry)}")
            if section == "end_to_end" and not 0 < entry.get("bound", 0) <= 0.25:
                problems.append(f"end_to_end: bound of {name!r} outside (0, 0.25]")
    setup = [e for e in spec["end_to_end"] if e.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        problems.append("end_to_end needs setup_s in s, lower is better")
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        problems.append("run_seconds must be a whole number in 1..60")
    return problems


def fingerprint(root: Path, seed: int) -> dict:
    """Where and on what a result was measured."""
    import numpy
    import scipy

    try:
        import ortools  # noqa: F401
        has_ortools = True
    except ImportError:
        has_ortools = False
    sha, dirty = "unknown", None
    try:
        top = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode == 0 and Path(top.stdout.strip()).resolve() == root.resolve():
            sha = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "-C", str(root), "status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True, timeout=10).stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        pass
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    gil = getattr(sys, "_is_gil_enabled", lambda: True)()
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "gil": bool(gil), "ortools": has_ortools,
            "git_sha": sha, "git_dirty": dirty, "seed": seed}


def measure(workload, seconds: float, tracer=None) -> list:
    """Cycle through the workload's variants until ``seconds`` are measured.

    Every variant runs at least once and the first one at least twice, so
    each run repeats a unit and can check that it placed the same way. A
    unit that raises is booked as failed -- all its decisions and
    applications -- and the loop goes on, so a crash lowers ``placed_frac``
    and raises ``failed`` instead of ending the run unseen.
    """
    from scenarios import UnitOutcome

    outcomes = []
    timed = 0.0
    while True:
        run_id = f"unit{len(outcomes)}"
        variant = len(outcomes) % workload.VARIANTS
        if tracer is not None:
            tracer.run = run_id
        # The program's tensors sit in reference cycles; without a collection
        # here they pile up across units until the cyclic collector runs.
        gc.collect()
        start = time.perf_counter()
        try:
            if tracer is None:
                raw = workload.run_unit(variant)
            else:
                with tracer.span("bench", run_id):
                    raw = workload.run_unit(variant)
            wall = time.perf_counter() - start
            outcome = workload.outcome(raw, wall, variant)
        except Exception as exc:  # the run goes on; the failure is counted
            wall = time.perf_counter() - start
            decisions, apps = workload.attempts(variant)
            outcome = UnitOutcome(
                wall_s=wall, decision_s=[], resolve_s=[], decisions=decisions,
                failed_decisions=decisions, apps=apps, placed=0, carbon_g=0.0,
                carbon_apps=0, latency_increase_ms=0.0, digest="",
                errors=[f"{run_id} raised {type(exc).__name__}: {exc}"])
        raw = None
        outcome.variant = variant
        outcomes.append(outcome)
        timed += wall
        if len(outcomes) > workload.VARIANTS and \
                timed + timed / len(outcomes) > seconds:
            return outcomes


def variant_digests(outcomes: list) -> dict[int, set[str]]:
    """The placement digests each variant produced, failed units left out."""
    digests: dict[int, set[str]] = {}
    for o in outcomes:
        if not o.failed_decisions:
            digests.setdefault(o.variant, set()).add(o.digest)
    return digests


def output_errors(outcomes: list) -> list[str]:
    """Per-unit check failures plus digest agreement between repeats."""
    errors = [e for o in outcomes for e in o.errors]
    for variant, digests in sorted(variant_digests(outcomes).items()):
        if len(digests) > 1:
            errors.append(f"variant {variant} placed differently when repeated: "
                          f"{sorted(digests)}")
    return errors


def run_digest(outcomes: list, n_variants: int) -> str:
    """One digest for the run: the variants' digests in variant order."""
    digests = variant_digests(outcomes)
    return hashlib.sha256(" ".join(",".join(sorted(digests.get(v, ())))
                                   for v in range(n_variants)).encode()).hexdigest()


def percentile_ms(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q) * 1000.0) if values else 0.0


def placements_per_s(outcomes: list) -> float:
    """Applications placed per wall-second of one pass over the variants,
    each variant at the median wall time of its units, so a run's rate does
    not depend on where in the cycle its time ran out."""
    walls: dict[int, list[float]] = {}
    placed: dict[int, int] = {}
    for o in outcomes:
        walls.setdefault(o.variant, []).append(o.wall_s)
        placed.setdefault(o.variant, o.placed)
    return sum(placed.values()) / sum(statistics.median(w) for w in walls.values())


def end_to_end(outcomes: list, setup_s: list[float], n_variants: int
               ) -> dict[str, float]:
    """The end-to-end metrics. Timings pool every unit; the quality figures
    come from the first run of each variant, so they are a function of the
    seed alone."""
    first = outcomes[:n_variants]
    decisions = [x for o in outcomes for x in o.decision_s]
    apps = sum(o.apps for o in first)
    carbon_apps = sum(o.carbon_apps for o in first)
    return {
        "setup_s": statistics.median(setup_s),
        "placements_per_s": placements_per_s(outcomes),
        "decision_p50_ms": percentile_ms(decisions, 50),
        "decision_p90_ms": percentile_ms(decisions, 90),
        "placed_frac": sum(o.placed for o in first) / apps if apps else 0.0,
        "carbon_g": sum(o.carbon_g for o in first) / carbon_apps if carbon_apps else 0.0,
        "latency_increase_ms": statistics.fmean(o.latency_increase_ms for o in first),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, setup_counters: dict, traced: list, untraced: list,
              cache_stats: dict) -> dict[str, float]:
    """Per-layer figures for one set-up plus one average timed unit."""
    from spans import ROOT_LAYER, layer_totals, span_layers

    n_units = len(traced)
    setup = layer_totals(tracer.spans, lambda s: s.run == "setup")
    timed = layer_totals(tracer.spans, lambda s: s.run != "setup")
    out: dict[str, float] = {}
    for layer in span_layers():
        for stat in ("calls", "busy_s", "self_s"):
            out[f"{layer}.{stat}"] = (setup.get(layer, {}).get(stat, 0)
                                      + timed.get(layer, {}).get(stat, 0) / n_units)
    total = tracer.counters
    per_unit = {k: (total[k] - setup_counters.get(k, 0.0)) / n_units
                for k in list(total)}
    decisions = sum(o.decisions for o in traced)
    lp_calls = timed.get("solver.lp_relaxation", {}).get("calls", 0)
    roots = [i for i, s in enumerate(tracer.spans)
             if s.layer == ROOT_LAYER and s.run != "setup"]
    root_set = set(roots)
    covered = sum(s.duration for s in tracer.spans if s.parent in root_set)
    root_time = sum(tracer.spans[i].duration for i in roots)
    pps = [placements_per_s(runs) for runs in (untraced, traced)]
    resolves = [x for o in untraced for x in o.resolve_s]
    out.update({
        "workloads.class_ratio": total["classes"] / total["apps"] if total["apps"] else 0.0,
        "solver.compile.row_bytes": cache_stats.get("row_bytes", 0),
        "solver.compile.row_evictions": cache_stats.get("row_evictions", 0),
        "solver.compile.revalidation_rate": (
            total["revalidation_sum"] / total["revalidation_n"]
            if total["revalidation_n"] else 0.0),
        "solver.compile.wave_count": per_unit.get("wave_count", 0.0),
        "solver.registry.truncated": per_unit.get("truncated", 0.0),
        "solver.registry.warm_hints_dropped": per_unit.get("warm_hints_dropped", 0.0),
        "solver.lp_relaxation.per_decision": lp_calls / decisions if decisions else 0.0,
        "solver.hierarchy.spilled_frac": (
            total["hier_spilled"] / total["hier_apps"] if total["hier_apps"] else 0.0),
        "solver.hierarchy.coarse_gap_g": (
            total["hier_gap_g"] / total["hier_solves"] if total["hier_solves"] else 0.0),
        "serving.feed.fallbacks": per_unit.get("feed_fallbacks", 0.0),
        "simulator.engine.events": per_unit.get("engine_events", 0.0),
        "core.incremental.resolve_p50_ms": percentile_ms(resolves, 50),
        "core.incremental.resolve_p90_ms": percentile_ms(resolves, 90),
        "trace.overhead_frac": pps[0] / pps[1] - 1.0 if pps[1] > 0 else 0.0,
        "trace.coverage": covered / root_time if root_time > 0 else 0.0,
        "trace.spans": sum(1 for s in tracer.spans if s.run != "setup") / n_units,
    })
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"no BENCHMARK.json in {root}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    problems = validate_spec(spec)
    if problems:
        print("BENCHMARK.json is invalid:\n  " + "\n  ".join(problems),
              file=sys.stderr)
        return 2
    src = root / "src"
    marker = src / "repro" / "simulator" / "cdn.py"
    if not marker.is_file():
        print(f"the program's sources are missing: no {marker}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from repro.simulator import cdn
    if Path(cdn.__file__).resolve() != marker.resolve():
        print(f"imported the program from {cdn.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    from scenarios import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()

    setup_s: list[float] = []
    while len(setup_s) < SETUP_MIN_REPEATS or (
            len(setup_s) < SETUP_MAX_REPEATS and sum(setup_s) < SETUP_BUDGET_S):
        workload.teardown()
        start = time.perf_counter()
        workload.setup(args.seed)
        setup_s.append(time.perf_counter() - start)
    untraced = measure(workload, args.seconds)
    errors = output_errors(untraced) + workload.final_checks()

    if args.trace:
        from spans import Tracer, install

        tracer = Tracer()
        workload.teardown()
        restore = install(tracer)
        try:
            with tracer.span("bench", "setup"):
                workload.setup(args.seed)
            setup_counters = dict(tracer.counters)
            traced = measure(workload, args.seconds, tracer)
        finally:
            restore()
        errors += output_errors(traced)
        if variant_digests(traced) != variant_digests(untraced):
            errors.append("the traced run placed differently from the untraced run")
        metrics = per_layer(tracer, setup_counters, traced, untraced,
                            workload.cache_stats())
        wanted = spec["per_layer"]
        tracer.dump(root / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl",
                    {"workload": args.workload, "seed": args.seed,
                     "fields": ["name", "layer", "start", "end", "parent", "run",
                                "error"]})
        outcomes = untraced + traced
    else:
        metrics = end_to_end(untraced, setup_s, workload.VARIANTS)
        wanted = spec["end_to_end"]
        outcomes = untraced

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        errors.append(f"metrics not measured: {missing}")
    attempted = sum(o.decisions for o in outcomes)
    failed = sum(o.failed_decisions for o in outcomes)
    print(json.dumps({
        "fingerprint": fingerprint(root, args.seed),
        "workload": args.workload,
        "units": len(untraced),
        "samples": {"decisions": sum(len(o.decision_s) for o in untraced),
                    "resolves": sum(len(o.resolve_s) for o in untraced)},
        "digest": run_digest(untraced, workload.VARIANTS),
        "setup_s": setup_s,
        "errors": errors,
    }, sort_keys=True))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
