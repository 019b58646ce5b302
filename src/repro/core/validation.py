"""Solution validation against the placement constraints (Equations 1–5).

Every experiment validates the solutions it reports, so a policy or solver bug
cannot silently produce infeasible placements that look like savings.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.resources import ResourceVector
from repro.core.problem import PlacementProblem
from repro.core.solution import PlacementSolution


class ValidationError(AssertionError):
    """Raised when a placement solution violates a constraint."""


def validate_solution(solution: PlacementSolution, strict: bool = True) -> list[str]:
    """Check a solution against its problem's constraints.

    Parameters
    ----------
    solution:
        The solution to validate.
    strict:
        Raise :class:`ValidationError` on the first set of violations instead
        of returning them.

    Returns
    -------
    list[str]
        Human-readable violation descriptions (empty when valid).
    """
    problem: PlacementProblem = solution.problem
    violations: list[str] = []
    n_apps, n_servers = problem.n_applications, problem.n_servers

    # Equation 3 holds by construction: the assignment vector has one entry
    # per application, a server index or -1 for unplaced. Check that it is
    # one (a vector written to after construction may not be).
    assignment = np.asarray(solution.assignment)
    if assignment.shape != (n_apps,):
        violations.append(f"assignment has shape {assignment.shape}, expected ({n_apps},)")
    elif assignment.size and assignment.dtype.kind not in "iu":
        violations.append(f"assignment holds {assignment.dtype} values, not server indices")
    elif ((assignment < -1) | (assignment >= n_servers)).any():
        ids = problem.app_ids()
        bad = ((assignment < -1) | (assignment >= n_servers)).nonzero()[0].tolist()
        violations.append(f"assignment names no server in [-1, {n_servers}) for "
                          f"applications: {[ids[i] for i in bad]}")
    else:
        violations.extend(_placement_violations(solution, assignment))

    # Equation 4: power-state consistency (no active server switched off).
    switched_off = ((problem.current_power > 0.5) & (solution.power_on < 0.5)).nonzero()[0]
    for j in switched_off.tolist():
        violations.append(
            f"server {problem.servers[j].server_id} was on before placement "
            "but the solution powers it off")

    if violations and strict:
        raise ValidationError("; ".join(violations))
    return violations


def _placement_violations(solution: PlacementSolution, assignment: np.ndarray) -> list[str]:
    """Equations 2, 1 and 5 over a well-formed assignment vector."""
    problem = solution.problem
    violations: list[str] = []
    i_arr = (assignment >= 0).nonzero()[0]
    j_arr = assignment[i_arr]

    # Equation 2 (latency / support feasibility of every chosen pair).
    bad = (~problem.feasible_mask()[i_arr, j_arr]).nonzero()[0]
    if bad.size:
        ids = problem.app_ids()
        for i, j in zip(i_arr[bad].tolist(), j_arr[bad].tolist()):
            violations.append(
                f"{ids[i]} placed on {problem.servers[j].server_id} violating its latency SLO "
                f"({2 * problem.latency_ms[i, j]:.2f} ms RTT > "
                f"{problem.applications[i].latency_slo_ms} ms)")

    # Equation 1: per-server capacity across every resource dimension, summed
    # over the dense (A, S, K) demand tensor.
    if i_arr.size:
        demand_dense = problem.demand_dense()
        capacity_dense = problem.capacity_dense()
        totals = np.zeros_like(capacity_dense)
        np.add.at(totals, j_arr, demand_dense[i_arr, j_arr])
        over = (totals > capacity_dense + 1e-9).any(axis=-1).nonzero()[0]
        for j in over.tolist():
            demand_total = ResourceVector(
                dict(zip(problem.resource_keys(), totals[j].tolist())))
            violations.append(
                f"server {problem.servers[j].server_id} over capacity: demand {demand_total} "
                f"> available {problem.capacities[j]}")

    # Equation 5: assignments require powered-on servers. The messages come
    # in the iteration order of the set of used servers, as they always have.
    if (solution.power_on[j_arr] < 0.5).any():
        for j in set(j_arr.tolist()):
            if solution.power_on[j] < 0.5:
                violations.append(
                    f"server {problem.servers[j].server_id} hosts applications "
                    "but is powered off")
    return violations
