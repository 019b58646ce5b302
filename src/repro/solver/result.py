"""Solver result containers."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class SolveStatus(Enum):
    """Outcome of a solve call."""

    OPTIMAL = "optimal"
    FEASIBLE = "feasible"          # a feasible (possibly sub-optimal) incumbent
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"

    @property
    def has_solution(self) -> bool:
        """Whether a usable variable assignment is available."""
        return self in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)


@dataclass
class SolveResult:
    """Result of solving a MILP (or its LP relaxation).

    Parameters
    ----------
    status:
        Solve outcome.
    objective:
        Objective value of the returned assignment (NaN when no solution).
    values:
        Column values of the program (``None`` when no solution).
    gap:
        Relative optimality gap of the incumbent (0 for proven optimal,
        NaN when unknown).
    bound:
        Best proven lower bound on the objective (equals ``objective`` for a
        proven-optimal solve, NaN when the solver proves none) — the anytime
        tier's certificate, surfaced as ``PlacementSolution.solver_bound``.
    nodes_explored:
        Number of branch-and-bound nodes explored (0 for pure LP solves).
    """

    status: SolveStatus
    objective: float = float("nan")
    values: np.ndarray | None = None
    gap: float = float("nan")
    bound: float = float("nan")
    nodes_explored: int = 0

    @property
    def has_solution(self) -> bool:
        """Whether the result carries a usable assignment (possibly of zero columns)."""
        return self.status.has_solution and self.values is not None

    def is_integral(self, columns: np.ndarray, tol: float = 1e-6) -> bool:
        """Whether the selected columns (indices or a mask) are integral within ``tol``."""
        if self.values is None:
            return False
        vals = self.values[columns]
        return bool(np.all(np.abs(vals - np.round(vals)) <= tol))
