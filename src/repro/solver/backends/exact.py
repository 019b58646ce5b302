"""Exact backend: the placement MILP solved by branch and bound.

This is the original CarbonEdge solve path — build the Equations 1–7 MILP in
matrix form with :func:`repro.core.model_builder.build_placement_model` and run
the best-first :class:`~repro.solver.branch_and_bound.BranchAndBoundSolver`
over it (the per-application column ranges are its rounding groups) —
refactored behind the :class:`~repro.solver.backend.PlacementSolver` protocol
so it is interchangeable with the heuristic backends. The request's time
budget caps the branch-and-bound wall clock; when the budget or node limit is
exhausted the solver still returns its best incumbent (with a gap), and the
registry fills any applications the incumbent left out from the heuristic
baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.model_builder import build_placement_model, solution_from_values
from repro.core.solution import PlacementSolution
from repro.solver.backend import SolveRequest
from repro.solver.branch_and_bound import BranchAndBoundSolver
from repro.solver.registry import register_backend

#: Node budget when the request carries none.
DEFAULT_MAX_NODES: int = 200

#: Wall-clock budget when the request carries none.
DEFAULT_TIME_LIMIT_S: float = 30.0


@register_backend("bnb", aliases=("exact", "branch-and-bound"))
@dataclass
class BranchAndBoundBackend:
    """Branch and bound over the placement MILP (HiGHS LP relaxations)."""

    name: str = "bnb"

    def solve(self, request: SolveRequest) -> PlacementSolution | None:
        problem = request.problem
        placement = build_placement_model(problem, request.dense())
        solver = BranchAndBoundSolver(
            max_nodes=request.max_nodes or DEFAULT_MAX_NODES,
            time_limit_s=request.remaining_s(default=DEFAULT_TIME_LIMIT_S),
            group_offsets=placement.offsets,
        )
        result = solver.solve(placement.program)
        if not result.has_solution:
            return None
        assignment, power_on = solution_from_values(problem, placement, result.values)
        return PlacementSolution(problem=problem, assignment=assignment,
                                 power_on=power_on,
                                 solver_gap=result.gap,
                                 solver_bound=result.bound,
                                 solver_params={
                                     "backend": self.name,
                                     "max_nodes": solver.max_nodes,
                                     "time_limit_s": solver.time_limit_s,
                                     "nodes_explored": result.nodes_explored,
                                 })
