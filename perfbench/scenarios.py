"""The four benchmark workloads, driven through the program's own entry points.

Each workload has a set-up (substrate and service construction, timed on
its own), ``VARIANTS`` units of work that the timed loop cycles through, and
checks on every unit's output. The seed picks the workload -- the
applications or the request streams of the variants -- while the substrate
(footprint, fleet, latency, carbon traces) is built from
:data:`SUBSTRATE_SEED`, so a seed changes what is placed and not where it
can go. Several variants per run average out how much one seed's inputs
happen to cost.

Calls that the traced run must see go through module attributes
(``hierarchy.solve_hierarchical``, ``validation.validate_solution``, ...),
the same names the program's own callers resolve.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from repro.core import validation
from repro.core.objective import ObjectiveKind
from repro.core.policies.carbon_edge import CarbonEdgePolicy
from repro.experiments import planetary_sweep
from repro.serving import service as service_mod
from repro.serving.loadgen import LoadGenerator
from repro.serving.parity import canonical_records, check_replay_parity
from repro.simulator import cdn
from repro.simulator.scenario import CDNScenario
from repro.solver import compile as compile_mod
from repro.solver import hierarchy
from repro.solver.config import SolverConfig
from repro.workloads.generator import ApplicationGenerator

#: Seed of the substrate every workload places onto.
SUBSTRATE_SEED = 0


@dataclass
class UnitOutcome:
    """What one unit of work produced, reduced to what the metrics need."""

    wall_s: float
    #: Wall latency of every placement decision (seconds).
    decision_s: list[float]
    #: Warm re-solve latencies (serving only; seconds).
    resolve_s: list[float]
    decisions: int
    failed_decisions: int
    #: Applications attempted, summed over decisions.
    apps: int
    placed: int
    #: Eq. 6 carbon of the CarbonEdge decisions, and the apps they placed.
    carbon_g: float
    carbon_apps: int
    latency_increase_ms: float
    digest: str
    errors: list[str] = field(default_factory=list)
    variant: int = 0


def _sha256(payload: str | bytes) -> str:
    data = payload.encode("utf-8") if isinstance(payload, str) else payload
    return hashlib.sha256(data).hexdigest()


def solution_digest(solution) -> str:
    """Digest of one solution's placement decisions."""
    return _sha256(json.dumps([sorted(solution.placements.items()),
                               sorted(solution.unplaced)]))


class Workload:
    """Interface of one workload; see the module docstring."""

    name = ""
    #: Distinct units of work per run; unit ``u`` runs variant ``u % VARIANTS``.
    VARIANTS = 1

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Drop the set-up state so the next set-up starts from nothing."""
        self.__dict__.clear()
        gc.collect()

    def run_unit(self, variant: int):
        """One unit of work: program calls only (this is what is timed)."""
        raise NotImplementedError

    def outcome(self, raw, wall_s: float, variant: int) -> UnitOutcome:
        raise NotImplementedError

    def attempts(self, variant: int) -> tuple[int, int]:
        """(decisions, applications) of one unit, for booking a failed unit."""
        raise NotImplementedError

    def final_checks(self) -> list[str]:
        """Checks run once per benchmark run, outside the timed region."""
        return []

    def cache_stats(self) -> dict:
        """``cache_stats()`` of the scenario compilations the unit used."""
        return {}


def _sum_cache_stats(compilations) -> dict:
    total = {"row_bytes": 0, "row_evictions": 0}
    for comp in compilations:
        stats = comp.cache_stats()
        for key in total:
            total[key] += stats[key]
    return total


class CdnYear(Workload):
    """fig11's year at daily epochs, four policies, greedy solver; the two
    variants are the US and the EU footprint."""

    name = "cdn_year"
    CONTINENTS = ("US", "EU")
    VARIANTS = len(CONTINENTS)
    N_EPOCHS = 365

    def setup(self, seed: int) -> None:
        # The substrate is cached per scenario; clear it so that every
        # set-up builds it, as a fresh process would.
        cdn.clear_substrate_cache()
        self.sims = []
        for continent in self.CONTINENTS:
            sim = cdn.CDNSimulator(CDNScenario(
                continent=continent, latency_limit_ms=20.0,
                n_epochs=self.N_EPOCHS, apps_per_site_per_epoch=2.0,
                solver="greedy", seed=SUBSTRATE_SEED))
            sim.generator = dataclasses.replace(sim.generator, seed=seed)
            sim.scenario_compilation()
            self.sims.append(sim)

    def run_unit(self, variant: int):
        return self.sims[variant].run()

    def outcome(self, result, wall_s: float, variant: int) -> UnitOutcome:
        records = [r for recs in result.records.values() for r in recs]
        ours = result.records["CarbonEdge"]
        weights = np.array([r.n_placed for r in ours], dtype=float)
        increases = np.array([r.latency_increase_one_way_ms for r in ours])
        errors = []
        saving = result.carbon_savings_pct("CarbonEdge")
        if not saving > 0:
            errors.append(f"CarbonEdge saves no carbon in "
                          f"{self.CONTINENTS[variant]} ({saving:.2f}%)")
        digest = _sha256("".join(canonical_records(result, policy)
                                 for policy in result.policies()))
        return UnitOutcome(
            wall_s=wall_s,
            decision_s=[r.solve_time_s for r in records],
            resolve_s=[],
            decisions=len(records),
            failed_decisions=0,
            apps=sum(r.n_placed + r.n_unplaced for r in records),
            placed=sum(r.n_placed for r in records),
            carbon_g=sum(r.carbon_g for r in ours),
            carbon_apps=int(weights.sum()),
            latency_increase_ms=float(np.average(increases, weights=weights)),
            digest=digest,
            errors=errors,
        )

    def attempts(self, variant: int) -> tuple[int, int]:
        n_policies = len(cdn.default_policies())
        sim = self.sims[variant]
        apps = sum(len(sim.generator.generate_batch(e, sim.scenario.epoch_start_hour(e)))
                   for e in range(self.N_EPOCHS))
        return n_policies * self.N_EPOCHS, n_policies * apps

    def cache_stats(self) -> dict:
        return _sum_cache_stats(sim.scenario_compilation() for sim in self.sims)


class _PlanetaryBase(Workload):
    """One server per footprint site and one epoch of 40 ms-SLO applications."""

    N_SITES = 0
    N_APPS = 0
    HOUR = 4700
    SLO_MS = 40.0

    def setup(self, seed: int) -> None:
        self.fleet, self.latency, self.carbon = \
            planetary_sweep.build_planetary_substrate(self.N_SITES, SUBSTRATE_SEED)
        self.servers = self.fleet.servers()
        generator = ApplicationGenerator(
            sites=self.fleet.sites(), latency_slo_ms=self.SLO_MS,
            mean_arrivals_per_batch=float(self.N_APPS), duration_hours=1.0,
            seed=seed)
        self.batches = [generator.generate_batch(k, self.HOUR, n_arrivals=self.N_APPS)
                        for k in range(self.VARIANTS)]
        self.compilation = None

    def attempts(self, variant: int) -> tuple[int, int]:
        return 1, self.N_APPS

    def cache_stats(self) -> dict:
        return _sum_cache_stats([self.compilation] if self.compilation else [])


class FleetEpoch(_PlanetaryBase):
    """One flat epoch through the default ``CarbonEdgePolicy()``."""

    name = "fleet_epoch"
    VARIANTS = 8
    N_SITES = 2048
    N_APPS = 4096

    def setup(self, seed: int) -> None:
        super().setup(seed)
        self.policy = CarbonEdgePolicy()

    def run_unit(self, variant: int):
        # A fresh compilation per unit, so every unit assembles cold.
        self.compilation = None
        self.compilation = compile_mod.ScenarioCompilation(
            self.servers, self.latency, self.carbon)
        problem = self.compilation.build_problem(self.batches[variant], self.HOUR)
        solution = self.policy.timed_place(problem)
        validation.validate_solution(solution, strict=True)
        return solution

    def outcome(self, solution, wall_s: float, variant: int) -> UnitOutcome:
        return UnitOutcome(
            wall_s=wall_s, decision_s=[wall_s], resolve_s=[], decisions=1,
            failed_decisions=0, apps=self.N_APPS, placed=solution.n_placed,
            carbon_g=solution.total_carbon_g(), carbon_apps=solution.n_placed,
            latency_increase_ms=solution.latency_increase_ms(),
            digest=solution_digest(solution))


class Planetary(_PlanetaryBase):
    """One ``planetary_sweep`` unit through the cluster-then-refine hierarchy."""

    name = "planetary"
    VARIANTS = 6
    N_SITES = 4096
    N_APPS = 8192
    N_REGIONS = 32

    def setup(self, seed: int) -> None:
        super().setup(seed)
        self._checked: dict[str, tuple[float, list[str]]] = {}

    def run_unit(self, variant: int):
        self.compilation = None
        self.compilation = compile_mod.ScenarioCompilation(
            self.servers, self.latency, self.carbon)
        plan = hierarchy.build_region_plan(
            self.fleet.sites(), self.fleet.site_coordinates(), self.N_REGIONS,
            seed=SUBSTRATE_SEED)
        return hierarchy.solve_hierarchical(
            self.compilation, self.batches[variant], plan, hour=self.HOUR,
            horizon_hours=1.0, objective=ObjectiveKind.CARBON,
            config=SolverConfig(hierarchy_regions=self.N_REGIONS,
                                refine_backend="greedy"),
            seed=SUBSTRATE_SEED)

    def outcome(self, result, wall_s: float, variant: int) -> UnitOutcome:
        assignment = np.asarray(result.assignment)
        digest = _sha256(assignment.astype(np.int64).tobytes())
        if digest not in self._checked:
            self._checked[digest] = self._check_assignment(
                result, assignment, self.batches[variant])
        increase_ms, errors = self._checked[digest]
        return UnitOutcome(
            wall_s=wall_s, decision_s=[wall_s], resolve_s=[], decisions=1,
            failed_decisions=0, apps=self.N_APPS, placed=result.n_placed,
            carbon_g=result.refined_objective, carbon_apps=result.n_placed,
            latency_increase_ms=increase_ms,
            digest=digest, errors=list(errors))

    def _check_assignment(self, result, assignment, batch) -> tuple[float, list[str]]:
        """Latency increase of the placement, and the checks the hierarchy
        output can take without building the flat apps x servers problem:
        counts add up, indices are servers, and every placed application
        meets its round-trip SLO."""
        errors = []
        if result.n_placed + result.n_unplaced != self.N_APPS:
            errors.append(f"placed {result.n_placed} + unplaced "
                          f"{result.n_unplaced} != {self.N_APPS} apps")
        if assignment.shape != (self.N_APPS,) or assignment.max() >= len(self.servers):
            errors.append("assignment does not index the fleet's servers")
            return 0.0, errors
        matrix = self.latency.matrix_ms
        server_site = np.array([self.latency.index_of(s.site) for s in self.servers])
        site_rows = np.array([self.latency.index_of(name)
                              for name in batch.site_names])
        app_site = site_rows[np.asarray(batch.site_idx)]
        placed = assignment >= 0
        one_way = matrix[app_site[placed], server_site[assignment[placed]]]
        if np.any(2.0 * one_way > self.SLO_MS + 1e-9):
            errors.append(f"{int(np.sum(2.0 * one_way > self.SLO_MS + 1e-9))} "
                          "placed apps miss their latency SLO")
        # Nearest SLO-feasible server per source site (every server here is
        # the same device, so feasibility is the SLO alone).
        sites = np.unique(app_site)
        nearest = np.full(matrix.shape[0], np.inf)
        for lo in range(0, len(sites), 256):
            rows = matrix[sites[lo:lo + 256]][:, server_site]
            nearest[sites[lo:lo + 256]] = np.where(
                2.0 * rows <= self.SLO_MS + 1e-9, rows, np.inf).min(axis=1)
        increase = one_way - nearest[app_site[placed]]
        return float(increase.mean()) if increase.size else 0.0, errors


class _RecordingCarbonEdge(CarbonEdgePolicy):
    """The default ``CarbonEdgePolicy()`` that keeps its batch decisions so
    their latency increase can be read after the timed unit."""

    def __post_init__(self) -> None:
        super().__post_init__()
        self.batch_solutions = []

    def timed_place(self, problem, warm_start=None):
        solution = super().timed_place(problem, warm_start)
        if warm_start is None:
            self.batch_solutions.append(solution)
        return solution


class Serving(Workload):
    """``PlacementService.run_live``: open-loop Poisson arrivals, 300 s
    batches and warm rolling-horizon re-solves, EU, 30 sites."""

    name = "serving"
    VARIANTS = 4
    RATE_PER_S = 0.05
    MEAN_LIFETIME_S = 5400.0
    BATCH_INTERVAL_S = 300.0
    RESOLVE_INTERVAL_S = 1800.0
    DURATION_S = 36_000.0

    def setup(self, seed: int) -> None:
        cdn.clear_substrate_cache()
        self.scenario = CDNScenario(continent="EU", n_epochs=1, max_sites=30,
                                    seed=SUBSTRATE_SEED)
        self.policy = _RecordingCarbonEdge()
        self.service = service_mod.PlacementService.from_scenario(
            self.scenario, policy=self.policy,
            config=service_mod.ServingConfig(
                batch_interval_s=self.BATCH_INTERVAL_S,
                resolve_interval_s=self.RESOLVE_INTERVAL_S))
        self.service.simulator.scenario_compilation()
        self.loads = [LoadGenerator(
            sites=self.service.simulator.fleet.sites(),
            rate_per_s=self.RATE_PER_S, mean_lifetime_s=self.MEAN_LIFETIME_S,
            seed=seed * self.VARIANTS + k) for k in range(self.VARIANTS)]

    def run_unit(self, variant: int):
        self.policy.batch_solutions.clear()
        return self.service.run_live(self.loads[variant], duration_s=self.DURATION_S)

    def outcome(self, report, wall_s: float, variant: int) -> UnitOutcome:
        metrics = report.metrics
        batches = [d for d in metrics.decisions if d.kind == "batch"]
        solutions = self.policy.batch_solutions
        placed = np.array([s.n_placed for s in solutions], dtype=float)
        increases = np.array([s.latency_increase_ms() for s in solutions])
        return UnitOutcome(
            wall_s=wall_s,
            decision_s=metrics.decision_latencies_s("batch").tolist(),
            resolve_s=metrics.decision_latencies_s("resolve").tolist(),
            decisions=len(metrics.decisions),
            failed_decisions=0,
            apps=sum(d.n_apps for d in batches),
            placed=metrics.total_placed(),
            carbon_g=metrics.total_carbon_g(),
            carbon_apps=metrics.total_placed(),
            latency_increase_ms=float(np.average(increases, weights=placed))
            if placed.sum() > 0 else 0.0,
            digest=metrics.decision_digest())

    def attempts(self, variant: int) -> tuple[int, int]:
        decisions = int(self.DURATION_S // self.BATCH_INTERVAL_S) + \
            int(self.DURATION_S // self.RESOLVE_INTERVAL_S)
        apps = sum(1 for e in self.loads[variant].events(self.DURATION_S)
                   if e.kind == "arrival")
        return decisions, apps

    def final_checks(self) -> list[str]:
        parity = check_replay_parity(self.scenario)
        return [] if parity.ok else [f"replay parity failed:\n{parity.summary()}"]

    def cache_stats(self) -> dict:
        return _sum_cache_stats([self.service.simulator.scenario_compilation()])


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (CdnYear, FleetEpoch, Planetary, Serving)}
