"""Frozen dict-based solution accounting: the parity oracle's reference.

A verbatim copy of the ``app_id -> server index`` dict-backed
``PlacementSolution`` metrics, the per-application ``validate_solution``
and the epoch record's hosting-intensity list that preceded the array form
of :class:`repro.core.solution.PlacementSolution`. It is kept only so
``tests/test_solution_parity.py`` can prove that the assignment-vector
accounting is byte-identical; it is retired together with that test, one
release after the array form shipped. Nothing under ``src/`` imports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.resources import ResourceVector
from repro.core.problem import PlacementProblem


@dataclass
class LegacySolution:
    """The dict-backed solution: placements, power decision, unplaced ids."""

    problem: PlacementProblem
    placements: dict[str, int] = field(default_factory=dict)
    power_on: np.ndarray = field(default_factory=lambda: np.array([]))
    unplaced: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.power_on) == 0:
            self.power_on = self.problem.current_power.copy()
        self.power_on = np.asarray(self.power_on, dtype=float)

    @property
    def n_placed(self) -> int:
        return len(self.placements)

    def apps_per_site(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for j in self.placements.values():
            site = self.problem.servers[j].site
            counts[site] = counts.get(site, 0) + 1
        return counts

    def _placement_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if not self.placements:
            empty = np.zeros(0, dtype=np.intp)
            return empty, empty
        i_arr = self.problem.app_indices(list(self.placements))
        j_arr = np.fromiter(self.placements.values(), dtype=np.intp,
                            count=len(self.placements))
        return i_arr, j_arr

    def newly_activated(self) -> np.ndarray:
        return np.clip(self.power_on - self.problem.current_power, 0.0, 1.0)

    def operational_carbon_g(self) -> float:
        op = self.problem.operational_carbon_g()
        i_arr, j_arr = self._placement_arrays()
        return float(sum(op[i_arr, j_arr].tolist()))

    def activation_carbon_g(self) -> float:
        return float(np.dot(self.newly_activated(), self.problem.activation_carbon_g()))

    def total_carbon_g(self) -> float:
        return self.operational_carbon_g() + self.activation_carbon_g()

    def dynamic_energy_j(self) -> float:
        i_arr, j_arr = self._placement_arrays()
        return float(sum(self.problem.energy_j[i_arr, j_arr].tolist()))

    def activation_energy_j(self) -> float:
        return float(np.dot(self.newly_activated(), self.problem.activation_energy_j()))

    def total_energy_j(self) -> float:
        return self.dynamic_energy_j() + self.activation_energy_j()

    def mean_latency_ms(self) -> float:
        if not self.placements:
            return 0.0
        i_arr, j_arr = self._placement_arrays()
        return float(np.mean(self.problem.latency_ms[i_arr, j_arr]))

    def max_latency_ms(self) -> float:
        if not self.placements:
            return 0.0
        i_arr, j_arr = self._placement_arrays()
        return float(np.max(self.problem.latency_ms[i_arr, j_arr]))

    def latency_increase_ms(self) -> float:
        if not self.placements:
            return 0.0
        problem = self.problem
        nearest = problem.nearest_feasible_ms()
        i_arr, j_arr = self._placement_arrays()
        reachable = np.isfinite(nearest[i_arr])
        increases = (problem.latency_ms[i_arr, j_arr] - nearest[i_arr])[reachable]
        return float(np.mean(increases)) if increases.size else 0.0

    def hosting_intensities(self) -> list[float]:
        """The epoch record's per-placement hosting intensities."""
        if self.placements:
            j_arr = np.fromiter(self.placements.values(), dtype=np.intp,
                                count=len(self.placements))
            return self.problem.intensity[j_arr].tolist()
        return []


def legacy_validate(solution: LegacySolution) -> list[str]:
    """The per-application ``validate_solution`` (non-strict)."""
    problem: PlacementProblem = solution.problem
    violations: list[str] = []
    feasible = problem.feasible_mask()

    placed_ids = set(solution.placements)
    unplaced_ids = set(solution.unplaced)
    all_ids = {app.app_id for app in problem.applications}
    if placed_ids & unplaced_ids:
        violations.append(f"applications both placed and unplaced: {placed_ids & unplaced_ids}")
    missing = all_ids - placed_ids - unplaced_ids
    if missing:
        violations.append(f"applications neither placed nor marked unplaced: {sorted(missing)}")
    unknown = placed_ids - all_ids
    if unknown:
        violations.append(f"placements for unknown applications: {sorted(unknown)}")

    known = [(app_id, j) for app_id, j in solution.placements.items() if app_id in all_ids]
    if known:
        i_arr = problem.app_indices([app_id for app_id, _ in known])
        j_arr = np.fromiter((j for _, j in known), dtype=np.intp, count=len(known))
    else:
        i_arr = j_arr = np.zeros(0, dtype=np.intp)

    for pos in np.flatnonzero(~feasible[i_arr, j_arr]):
        app_id, j = known[int(pos)]
        i = int(i_arr[pos])
        violations.append(
            f"{app_id} placed on {problem.servers[j].server_id} violating its latency SLO "
            f"({2 * problem.latency_ms[i, j]:.2f} ms RTT > {problem.applications[i].latency_slo_ms} ms)")

    if known:
        demand_dense = problem.demand_dense()
        capacity_dense = problem.capacity_dense()
        totals = np.zeros_like(capacity_dense)
        np.add.at(totals, j_arr, demand_dense[i_arr, j_arr])
        over = np.flatnonzero(np.any(totals > capacity_dense + 1e-9, axis=-1))
        for j in over:
            j = int(j)
            demand_total = ResourceVector(
                dict(zip(problem.resource_keys(), totals[j].tolist())))
            violations.append(
                f"server {problem.servers[j].server_id} over capacity: demand {demand_total} "
                f"> available {problem.capacities[j]}")

    used_servers = set(solution.placements.values())
    for j in used_servers:
        if solution.power_on[j] < 0.5:
            violations.append(
                f"server {problem.servers[j].server_id} hosts applications but is powered off")

    switched_off = np.flatnonzero((problem.current_power > 0.5) & (solution.power_on < 0.5))
    for j in switched_off:
        violations.append(
            f"server {problem.servers[int(j)].server_id} was on before placement "
            "but the solution powers it off")
    return violations
