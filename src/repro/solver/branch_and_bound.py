"""Best-first branch and bound over binary variables.

The solver repeatedly solves LP relaxations (HiGHS) of one
:class:`~repro.solver.milp.LinearProgram` while fixing binary columns along
branches. It keeps a best-first frontier ordered by the node's LP bound,
prunes nodes whose bound cannot beat the incumbent, and falls back to LP
rounding when the node budget is exhausted so callers always get a feasible
answer (when one exists) together with an optimality gap. It branches on the
most fractional binary, ties going to the lowest column.

For the placement models CarbonEdge builds, the LP relaxation is integral most
of the time (assignment-like structure), so branch and bound usually terminates
after the root node.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from repro.solver.lp_relaxation import solve_lp_relaxation
from repro.solver.milp import LinearProgram
from repro.solver.result import SolveResult, SolveStatus
from repro.solver.rounding import fractional_binaries, round_and_repair


@dataclass(order=True)
class _Node:
    bound: float
    sequence: int
    fixes: dict[int, tuple[float, float]] = field(compare=False)


@dataclass
class BranchAndBoundSolver:
    """Exact (bounded-effort) MILP solver.

    Parameters
    ----------
    max_nodes:
        Maximum number of LP relaxations solved before falling back to the
        incumbent / rounding.
    time_limit_s:
        Wall-clock limit; the solver returns the best incumbent found so far.
    integrality_tol:
        Tolerance when deciding whether a relaxation value is integral.
    group_offsets:
        Optional boundaries of "exactly-one" column groups: group ``g`` is
        columns ``group_offsets[g]:group_offsets[g + 1]`` (empty ranges are
        skipped). They are forwarded to the rounding repair heuristic (see
        :func:`repro.solver.rounding.round_and_repair`) when the root
        relaxation is fractional.
    """

    max_nodes: int = 200
    time_limit_s: float = 30.0
    integrality_tol: float = 1e-6
    group_offsets: np.ndarray | None = None

    def solve(self, program: LinearProgram) -> SolveResult:
        """Solve ``program`` to (near-)optimality."""
        start = time.monotonic()

        root = solve_lp_relaxation(program)
        if root.status in (SolveStatus.INFEASIBLE, SolveStatus.UNBOUNDED, SolveStatus.ERROR):
            return root
        if root.is_integral(program.is_binary, tol=self.integrality_tol):
            return SolveResult(status=SolveStatus.OPTIMAL, objective=root.objective,
                               values=root.values, gap=0.0, bound=root.objective,
                               nodes_explored=1)

        best_bound = root.objective
        incumbent: SolveResult | None = None

        # Seed the incumbent with a rounded solution so pruning is effective.
        rounded = round_and_repair(program, root.values, groups=self._groups())
        if rounded.has_solution:
            incumbent = rounded

        counter = itertools.count()
        frontier: list[_Node] = [_Node(bound=root.objective, sequence=next(counter), fixes={})]
        nodes_explored = 1

        while frontier and nodes_explored < self.max_nodes:
            if time.monotonic() - start > self.time_limit_s:
                break
            node = heapq.heappop(frontier)
            if incumbent is not None and node.bound >= incumbent.objective - 1e-9:
                continue  # cannot improve on the incumbent
            relax = solve_lp_relaxation(program, fixes=node.fixes)
            nodes_explored += 1
            if not relax.has_solution:
                continue
            if incumbent is not None and relax.objective >= incumbent.objective - 1e-9:
                continue
            fractional = fractional_binaries(relax.values, program.is_binary,
                                             tol=self.integrality_tol)
            if fractional.size == 0:
                # Integral leaf: new incumbent.
                if incumbent is None or relax.objective < incumbent.objective:
                    incumbent = SolveResult(status=SolveStatus.FEASIBLE,
                                            objective=relax.objective,
                                            values=relax.values)
                continue
            branch_col = int(fractional[0])
            for lo, hi in ((1.0, 1.0), (0.0, 0.0)):
                fixes = dict(node.fixes)
                fixes[branch_col] = (lo, hi)
                heapq.heappush(frontier, _Node(bound=relax.objective,
                                               sequence=next(counter), fixes=fixes))

        if incumbent is None:
            # Exhausted the budget without an integral solution; final attempt
            # via rounding of the root relaxation already failed, so report it.
            return SolveResult(status=SolveStatus.INFEASIBLE, nodes_explored=nodes_explored)

        remaining_bounds = [n.bound for n in frontier]
        lower_bound = min([best_bound, *remaining_bounds]) if remaining_bounds else best_bound
        denom = max(abs(incumbent.objective), 1e-12)
        gap = max(0.0, (incumbent.objective - lower_bound) / denom)
        proven_optimal = not frontier or gap <= 1e-9
        return SolveResult(
            status=SolveStatus.OPTIMAL if proven_optimal else SolveStatus.FEASIBLE,
            objective=incumbent.objective,
            values=incumbent.values,
            gap=0.0 if proven_optimal else gap,
            bound=incumbent.objective if proven_optimal else lower_bound,
            nodes_explored=nodes_explored,
        )

    def _groups(self) -> list[np.ndarray] | None:
        """Column-index groups from :attr:`group_offsets` (empty ranges skipped)."""
        if self.group_offsets is None:
            return None
        bounds = np.asarray(self.group_offsets)
        return [np.arange(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
