"""Anytime exact tier: OR-Tools CP-SAT (``cpsat``) and pywraplp (``milp``).

Both backends compile the placement MILP *directly from the epoch
compilation's dense tensors* — the same tie-broken cost matrix, demand/
capacity tensors, and activation coefficients every other backend reads
(:meth:`SolveRequest.dense`) — so they minimise the identical augmented
objective as ``bnb`` and the greedy kernel, and cross-backend objective
comparisons are apples to apples.

Anytime contract: the greedy kernel's solution (or the request's sanitized
warm start) is installed as a solver *hint*, ``time_budget_s`` caps the wall
clock, and any budget returns the best incumbent found so far together with
the solver's proven bound (:attr:`PlacementSolution.solver_bound`) and the
exact parameters used (:attr:`PlacementSolution.solver_params`).
``num_search_workers`` (:class:`~repro.solver.config.SolverConfig`) widens
CP-SAT's portfolio search — see the determinism carve-out on
:class:`SolverConfig`: under a finite budget parallel search may change which
incumbent is best at the deadline.

OR-Tools is an **optional dependency** (``pip install .[exact]``). The
backends register unconditionally; when the import is missing at solve time
they emit a structured :class:`OrToolsUnavailableWarning` and return ``None``,
and the registry front door falls back to the deterministic heuristic — never
an ``ImportError`` on a solve path.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from repro.core.solution import PlacementSolution
from repro.solver.backend import SolveRequest
from repro.solver.compile import (
    DenseCosts,
    GreedyState,
    assignment_to_solution,
    greedy_fill,
)
from repro.solver.registry import register_backend

#: Wall-clock budget when the request carries none (matches the bnb default).
DEFAULT_EXACT_BUDGET_S: float = 30.0

#: Fixed-point scale for CP-SAT's integer coefficients. Deterministic: the
#: same request always produces the same integer model.
CPSAT_SCALE: int = 10**6

#: pywraplp solver ids tried in order (SCIP when the wheel bundles it,
#: CBC as the fallback — both ship with the standard ortools wheel).
MILP_SOLVER_IDS: tuple[str, ...] = ("SCIP", "CBC")


class OrToolsUnavailableWarning(UserWarning):
    """OR-Tools is not installed; the registry degrades to the heuristic.

    A structured warning category (rather than a bare ``UserWarning``) so
    callers and tests can filter for exactly this degradation, and so the
    fallback never surfaces as an ``ImportError`` from a solve path.
    """


def ortools_available() -> bool:
    """Whether the optional ``ortools`` dependency can be imported."""
    return _load_ortools() is not None


def _load_ortools():
    """The ``ortools`` package, or ``None`` when the optional dep is absent."""
    try:
        import ortools  # noqa: F401
        return ortools
    except ImportError:
        return None


def _warn_unavailable(backend: str) -> None:
    warnings.warn(
        f"solver backend {backend!r} requires the optional OR-Tools "
        f"dependency (pip install .[exact]); falling back to the "
        f"deterministic heuristic backend",
        OrToolsUnavailableWarning, stacklevel=3)


# -- shared dense-tensor model view -------------------------------------------


@dataclass
class _DenseModel:
    """The placement MILP read off the epoch compilation's dense tensors.

    One (application, server) pair per ``mask`` entry, exactly-one assignment
    per placeable application, per-server/per-resource capacity with the
    power coupling, and the tie-broken cost matrix as objective — the same
    formulation :func:`repro.core.model_builder.build_placement_model` builds
    as a sparse matrix for HiGHS, assembled here from the same tensors every
    backend already shares.
    """

    request: SolveRequest
    dense: DenseCosts = field(init=False)
    #: Per-application arrays of candidate server indices (mask rows).
    candidates: list[np.ndarray] = field(init=False)
    #: Greedy (or warm-start) assignment used as the solver hint; -1 unplaced.
    hint: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.dense = self.request.dense()
        self.candidates = [np.flatnonzero(self.dense.mask[i])
                           for i in range(self.dense.mask.shape[0])]
        self.hint = self._hint_assignment()

    @property
    def n_apps(self) -> int:
        return self.dense.mask.shape[0]

    @property
    def n_servers(self) -> int:
        return self.dense.mask.shape[1]

    def _hint_assignment(self) -> np.ndarray:
        """The warm hint: the request's sanitized warm start completed by the
        greedy kernel (the registry's heuristic seed, minus local search)."""
        request = self.request
        state = GreedyState(self.dense)
        if request.warm_start:
            for app_id, j in request.warm_start.items():
                i = request.problem.app_index(app_id)  # sanitized upstream
                j = int(j)
                if not self.dense.mask[i, j] or state.assignment[i] >= 0:
                    continue
                if not bool(np.all(self.dense.demand[i, j]
                                   <= state.capacity_left[j] + 1e-9)):
                    continue
                state.place(i, j)
        greedy_fill(state, request.problem.energy_j)
        return state.assignment

    def decode(self, assignment: np.ndarray, *, gap: float, bound: float,
               params: dict[str, object]) -> PlacementSolution:
        """Build a solution (placements, power, provenance) from an (A,) vector."""
        solution = assignment_to_solution(self.request.problem, assignment)
        solution.solver_gap = gap
        solution.solver_bound = bound
        solution.solver_params = params
        return solution


def _relative_gap(objective: float, bound: float) -> float:
    """Relative incumbent-vs-bound gap (0 when proven optimal)."""
    if not (math.isfinite(objective) and math.isfinite(bound)):
        return float("nan")
    denom = max(1.0, abs(objective))
    return max(0.0, (objective - bound) / denom)


# -- CP-SAT -------------------------------------------------------------------


@register_backend("cpsat", aliases=("cp-sat", "ortools"))
@dataclass
class CpSatBackend:
    """OR-Tools CP-SAT over the dense placement tensors (integer-scaled).

    Cost, demand, and capacity are fixed-point scaled by :data:`CPSAT_SCALE`
    (demand rounded up, capacity rounded down, so a scaled-feasible packing
    is always float-feasible). The greedy/warm-start assignment is installed
    with ``AddHint`` and the search is capped by the request's remaining
    budget — CP-SAT then behaves as an anytime solver: it returns its best
    incumbent plus ``BestObjectiveBound`` whenever the budget expires.
    """

    name: str = "cpsat"

    def solve(self, request: SolveRequest) -> PlacementSolution | None:
        if _load_ortools() is None:
            _warn_unavailable(self.name)
            return None
        from ortools.sat.python import cp_model

        view = _DenseModel(request)
        dense = view.dense
        model = cp_model.CpModel()

        y = [model.NewBoolVar(f"y[{j}]") for j in range(view.n_servers)]
        for j in range(view.n_servers):
            if bool(dense.initially_on[j]):
                model.Add(y[j] == 1)  # power-state consistency (Equation 4)
        x: dict[tuple[int, int], object] = {}
        for i in range(view.n_apps):
            row = []
            for j in view.candidates[i]:
                j = int(j)
                var = model.NewBoolVar(f"x[{i},{j}]")
                x[i, j] = var
                model.AddImplication(var, y[j])  # Equation 5
                row.append(var)
            if row:
                model.AddExactlyOne(row)  # Equation 3

        # Equation 1: capacity per server and resource key, with the y coupling.
        for j in range(view.n_servers):
            interested = [i for i in range(view.n_apps) if (i, j) in x]
            if not interested:
                continue
            for k in range(len(dense.keys)):
                terms, coeffs = [], []
                for i in interested:
                    d = int(math.ceil(float(dense.demand[i, j, k]) * CPSAT_SCALE - 1e-9))
                    if d > 0:
                        terms.append(x[i, j])
                        coeffs.append(d)
                if not terms:
                    continue
                cap = int(math.floor(float(dense.capacity[j, k]) * CPSAT_SCALE + 1e-9))
                model.Add(cp_model.LinearExpr.WeightedSum(terms, coeffs)
                          <= cap * y[j])

        # Objective: tie-broken assignment cost + activation of newly-on servers.
        obj_terms, obj_coeffs = [], []
        for (i, j), var in x.items():
            obj_terms.append(var)
            obj_coeffs.append(int(round(float(dense.cost[i, j]) * CPSAT_SCALE)))
        for j in range(view.n_servers):
            if not bool(dense.initially_on[j]) and float(dense.activation[j]) != 0.0:
                obj_terms.append(y[j])
                obj_coeffs.append(int(round(float(dense.activation[j]) * CPSAT_SCALE)))
        model.Minimize(cp_model.LinearExpr.WeightedSum(obj_terms, obj_coeffs))

        # Warm hint: the greedy kernel's placement (or the sanitized warm
        # start completed by it) seeds the search so any budget starts from
        # a known-good incumbent.
        hint_vars, hint_values = [], []
        hinted_servers = set()
        for i in range(view.n_apps):
            j = int(view.hint[i])
            if j >= 0 and (i, j) in x:
                hint_vars.append(x[i, j])
                hint_values.append(1)
                hinted_servers.add(j)
        for j in hinted_servers:
            hint_vars.append(y[j])
            hint_values.append(1)
        if hint_vars:
            model.AddHint(hint_vars, hint_values)

        solver = cp_model.CpSolver()
        budget_s = request.remaining_s(default=DEFAULT_EXACT_BUDGET_S)
        params = {
            "backend": self.name,
            "max_time_in_seconds": float(budget_s),
            "num_search_workers": int(request.config.num_search_workers),
            "random_seed": int(request.seed) % (2**31 - 1),
            "scale": CPSAT_SCALE,
        }
        solver.parameters.max_time_in_seconds = params["max_time_in_seconds"]
        solver.parameters.num_search_workers = params["num_search_workers"]
        solver.parameters.random_seed = params["random_seed"]
        status = solver.Solve(model)
        if status not in (cp_model.OPTIMAL, cp_model.FEASIBLE):
            return None

        assignment = np.full(view.n_apps, -1, dtype=int)
        for (i, j), var in x.items():
            if solver.Value(var):
                assignment[i] = j
        objective = float(solver.ObjectiveValue()) / CPSAT_SCALE
        bound = float(solver.BestObjectiveBound()) / CPSAT_SCALE
        gap = 0.0 if status == cp_model.OPTIMAL else _relative_gap(objective, bound)
        params["status"] = solver.StatusName(status)
        return view.decode(assignment, gap=gap, bound=bound, params=params)


# -- pywraplp (MILP) ----------------------------------------------------------


@register_backend("milp", aliases=("pywraplp", "mip"))
@dataclass
class PywraplpBackend:
    """OR-Tools ``pywraplp`` (SCIP, CBC fallback) over the dense tensors.

    The float formulation mirrors :class:`CpSatBackend` without fixed-point
    scaling; the hint goes through ``SetHint`` (where the wrapped solver
    supports it) and ``SetTimeLimit`` makes the solve anytime. The proven
    bound is read from ``Objective().BestBound()``.
    """

    name: str = "milp"

    def solve(self, request: SolveRequest) -> PlacementSolution | None:
        if _load_ortools() is None:
            _warn_unavailable(self.name)
            return None
        from ortools.linear_solver import pywraplp

        solver = None
        solver_id = None
        for candidate in MILP_SOLVER_IDS:
            solver = pywraplp.Solver.CreateSolver(candidate)
            if solver is not None:
                solver_id = candidate
                break
        if solver is None:
            _warn_unavailable(self.name)
            return None

        view = _DenseModel(request)
        dense = view.dense

        y = [solver.IntVar(1.0 if bool(dense.initially_on[j]) else 0.0, 1.0,
                           f"y[{j}]") for j in range(view.n_servers)]
        x: dict[tuple[int, int], object] = {}
        for i in range(view.n_apps):
            row = []
            for j in view.candidates[i]:
                j = int(j)
                var = solver.IntVar(0.0, 1.0, f"x[{i},{j}]")
                x[i, j] = var
                solver.Add(var <= y[j])  # Equation 5
                row.append(var)
            if row:
                solver.Add(solver.Sum(row) == 1.0)  # Equation 3

        for j in range(view.n_servers):
            interested = [i for i in range(view.n_apps) if (i, j) in x]
            if not interested:
                continue
            for k in range(len(dense.keys)):
                terms = [(x[i, j], float(dense.demand[i, j, k]))
                         for i in interested if float(dense.demand[i, j, k]) > 0.0]
                if not terms:
                    continue
                cap = float(dense.capacity[j, k])
                solver.Add(solver.Sum(v * d for v, d in terms) <= cap * y[j])

        objective = solver.Objective()
        for (i, j), var in x.items():
            objective.SetCoefficient(var, float(dense.cost[i, j]))
        for j in range(view.n_servers):
            if not bool(dense.initially_on[j]) and float(dense.activation[j]) != 0.0:
                objective.SetCoefficient(y[j], float(dense.activation[j]))
        objective.SetMinimization()

        hint_vars, hint_values = [], []
        hinted_servers = set()
        for i in range(view.n_apps):
            j = int(view.hint[i])
            if j >= 0 and (i, j) in x:
                hint_vars.append(x[i, j])
                hint_values.append(1.0)
                hinted_servers.add(j)
        for j in hinted_servers:
            hint_vars.append(y[j])
            hint_values.append(1.0)
        if hint_vars:
            try:
                solver.SetHint(hint_vars, hint_values)
            except (AttributeError, TypeError):  # older wrappers lack SetHint
                pass

        budget_s = request.remaining_s(default=DEFAULT_EXACT_BUDGET_S)
        params = {
            "backend": self.name,
            "solver_id": solver_id,
            "time_limit_ms": int(max(1.0, budget_s * 1000.0)),
            "num_search_workers": int(request.config.num_search_workers),
            "seed": int(request.seed),
        }
        solver.SetTimeLimit(params["time_limit_ms"])
        if params["num_search_workers"] > 1:
            try:
                solver.SetNumThreads(params["num_search_workers"])
            except AttributeError:
                pass
        status = solver.Solve()
        if status not in (pywraplp.Solver.OPTIMAL, pywraplp.Solver.FEASIBLE):
            return None

        assignment = np.full(view.n_apps, -1, dtype=int)
        for (i, j), var in x.items():
            if var.solution_value() > 0.5:
                assignment[i] = j
        obj_value = float(objective.Value())
        try:
            bound = float(objective.BestBound())
        except Exception:  # pragma: no cover - wrapper/solver without a bound
            bound = float("nan")
        gap = 0.0 if status == pywraplp.Solver.OPTIMAL \
            else _relative_gap(obj_value, bound)
        params["status"] = "OPTIMAL" if status == pywraplp.Solver.OPTIMAL \
            else "FEASIBLE"
        return view.decode(assignment, gap=gap, bound=bound, params=params)
