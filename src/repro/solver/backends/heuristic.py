"""Greedy construction + local-search heuristic backend.

The workhorse for large instances and tight time budgets: the shared dense
greedy kernel (:func:`repro.solver.compile.greedy_fill` — the one greedy
engine in the tree, also backing the baseline policies) followed by
best-improvement relocation local search. The construction alone is the
``greedy`` backend; the local-search phase closes most of the remaining gap
to the exact solve by relocating applications whenever the move lowers the
augmented objective — including the activation saving of emptying a server
that the placement itself switched on.

The backend is deterministic (fixed iteration order, first-index argmin), so
the registry can rely on it both as the fast path and as the fallback
baseline for the other backends. Warm starts (previous epoch's placement) are
applied before the greedy fill, which makes incremental epoch re-solves cheap:
only applications whose previous server became infeasible are re-placed from
scratch, and local search then re-optimises around the seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.solution import PlacementSolution
from repro.solver.backend import SolveRequest, solution_from_assignment
from repro.solver.compile import (
    DenseCosts,
    GreedyState,
    bool_all,
    greedy_fill,
)
from repro.solver.registry import register_backend

#: Local-search wall-clock budget when the request carries none.
DEFAULT_LOCAL_SEARCH_BUDGET_S: float = 5.0

#: Deadline is polled every this many applications inside a pass.
_DEADLINE_STRIDE: int = 64


@register_backend("heuristic", aliases=("local-search",))
@dataclass
class GreedyLocalSearchBackend:
    """Vectorised greedy + relocation local search.

    Parameters
    ----------
    max_passes:
        Maximum number of full local-search sweeps over the applications.
    local_search:
        Disable to get the pure greedy construction (the ``greedy`` backend).
    """

    max_passes: int = 8
    local_search: bool = True
    name: str = "heuristic"
    #: These backends always return a feasible solution on their own; the
    #: registry skips the redundant heuristic-baseline run for them.
    needs_fallback: bool = False

    def solve(self, request: SolveRequest) -> PlacementSolution | None:
        state = GreedyState(request.dense())
        self._apply_warm_start(request, state)
        # The construction respects an explicit time budget (requests without
        # one keep the unbounded construction — bit-identity consumers never
        # pass a budget, so their schedule is untouched). An expired budget
        # returns the valid partial fill, flagged construction_truncated.
        construction_deadline = None if request.time_budget_s is None \
            else request.started_at + request.time_budget_s
        greedy_fill(state, request.problem.energy_j,
                    deadline=construction_deadline)
        if self.local_search and not state.stats.truncated:
            self._improve(request, state)
        solution = solution_from_assignment(request, state.assignment)
        # Replay-execution telemetry (diagnostics only; see FillStats).
        solution.wave_count = state.stats.waves
        solution.revalidation_rate = state.stats.revalidation_rate
        solution.construction_truncated = state.stats.truncated
        return solution

    # -- construction ---------------------------------------------------------

    def _apply_warm_start(self, request: SolveRequest, state: GreedyState) -> None:
        """Seed the assignment from a previous placement, skipping stale entries.

        Malformed hints (departed apps, out-of-range servers) were already
        dropped — and counted — by the request's sanitization pass; what
        remains is well-formed, so only the epoch-specific feasibility checks
        (mask, remaining capacity) are applied here.
        """
        if not request.warm_start:
            return
        problem = request.problem
        for app_id, j in request.warm_start.items():
            i = problem.app_index(app_id)  # O(1), cached on the problem
            j = int(j)
            if not state.dense.mask[i, j] or state.assignment[i] >= 0:
                continue
            if not bool_all(state.dense.demand[i, j] <= state.capacity_left[j] + 1e-9):
                continue
            state.place(i, j)

    # -- local search ----------------------------------------------------------

    def _improve(self, request: SolveRequest, state: GreedyState) -> None:
        """Best-improvement relocation sweeps until convergence or deadline.

        A pass visits the applications in index order and moves each to its
        cheapest server when that lowers its cost. Each stride is priced at
        once (:meth:`_best_moves`); the first application that moves is
        moved and the rest of the stride is priced again from the new state,
        so a pass moves exactly as a one-at-a-time sweep does.
        """
        deadline = request.deadline(DEFAULT_LOCAL_SEARCH_BUDGET_S)
        if time.monotonic() >= deadline:
            return
        dense = state.dense
        n_apps = len(state.assignment)
        for _ in range(self.max_passes):
            improved = False
            for lo in range(0, n_apps, _DEADLINE_STRIDE):
                if time.monotonic() >= deadline:
                    return
                hi = min(lo + _DEADLINE_STRIDE, n_apps)
                i = lo
                while i < hi:
                    moves, targets = self._best_moves(np.arange(i, hi), state, dense)
                    hits = np.flatnonzero(moves)
                    if hits.size == 0:
                        break
                    i += int(hits[0])
                    j0, j1 = int(state.assignment[i]), int(targets[hits[0]])
                    if j0 < 0:
                        state.place(i, j1)
                    else:
                        state.move(i, j0, j1)
                    improved = True
                    i += 1
            if not improved:
                return

    @staticmethod
    def _best_moves(apps: np.ndarray, state: GreedyState,
                    dense: DenseCosts) -> tuple[np.ndarray, np.ndarray]:
        """(moves, targets): each application's best move from the current state.

        ``targets`` is the cheapest server that fits (lowest index among
        ties), where a server the move would newly switch on costs its
        activation too and a server only this application occupies stops
        counting as on. An application moves when it is unplaced and the
        target's cost is finite (placing always wins), or when the target is
        another server cheaper than its current one by more than ``1e-9``.
        """
        rows = np.arange(len(apps))
        j0 = state.assignment[apps]
        placed = j0 >= 0
        jp = j0[placed]
        feasible = dense.mask[apps] & bool_all(
            dense.demand[apps] <= state.capacity_left + 1e-9)
        feasible[rows[placed], jp] = True  # staying put is always allowed
        off = ~dense.initially_on
        pay = np.tile(dense.activation * ((state.served == 0) & off), (len(apps), 1))
        pay[rows[placed], jp] = dense.activation[jp] * ((state.served[jp] - 1 == 0) & off[jp])
        candidate = np.where(feasible, dense.cost[apps] + pay, np.inf)
        targets = np.argmin(candidate, axis=1)
        best = candidate[rows, targets]
        current = dense.cost[apps, j0] + pay[rows, j0]
        stays = (best >= current - 1e-9) | (targets == j0)
        return np.isfinite(best) & (~placed | ~stays), targets


@register_backend("greedy")
@dataclass
class PureGreedyBackend(GreedyLocalSearchBackend):
    """Construction-only variant: the dense greedy kernel's registry face.

    Same ordering and marginal-cost rule as the full heuristic, without the
    local-search pass — so ``solver="greedy"`` keeps the one-shot greedy cost
    profile at CDN scale. This is also the engine behind the Latency-,
    Intensity-, and Energy-aware baseline policies.
    """

    local_search: bool = False
    name: str = "greedy"
