"""Tests for the pluggable solver-backend registry (repro.solver.registry)."""

import numpy as np
import pytest

from repro.cluster.resources import ResourceVector
from repro.core.objective import ObjectiveKind
from repro.core.policies.carbon_edge import CarbonEdgePolicy
from repro.core.problem import PlacementProblem
from repro.core.validation import validate_solution
from repro.solver import registry
from repro.solver.backend import SolveRequest, raw_objective_value
from repro.solver.backends.heuristic import GreedyLocalSearchBackend


# -- registry mechanics ---------------------------------------------------------

def test_registry_module_importable_first():
    # Importing the registry before anything else must not trip the
    # solver<->core import cycle (external backend packages do exactly this).
    import subprocess
    import sys
    result = subprocess.run(
        [sys.executable, "-c",
         "import repro.solver.registry as r; print(len(r.available_backends()))"],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "6"


def test_builtin_backends_are_registered():
    names = registry.available_backends()
    assert names == ("bnb", "cpsat", "greedy", "heuristic", "lp-round", "milp")
    for name in names:
        backend = registry.get_backend(name)
        assert backend.name == name


def test_aliases_resolve_to_canonical_backends():
    assert registry.get_backend("exact").name == "bnb"
    assert registry.get_backend("local-search").name == "heuristic"
    assert registry.get_backend("lp-rounding").name == "lp-round"
    assert "auto" in registry.backend_names()
    assert "auto" not in registry.available_backends()


def test_greedy_backend_is_construction_only():
    greedy = registry.get_backend("greedy")
    assert isinstance(greedy, GreedyLocalSearchBackend)
    assert greedy.local_search is False
    assert registry.get_backend("heuristic").local_search is True


def test_unknown_backend_raises_with_available_names():
    with pytest.raises(ValueError,
                       match="bnb, cpsat, greedy, heuristic, lp-round, milp"):
        registry.get_backend("quantum")
    with pytest.raises(ValueError):
        registry.get_backend("auto")  # a selection rule, not a backend


def test_register_backend_rejects_duplicates():
    with pytest.raises(ValueError):
        registry.register_backend("heuristic")(GreedyLocalSearchBackend)
    with pytest.raises(ValueError):
        registry.register_backend("fresh-name", aliases=("exact",))(GreedyLocalSearchBackend)
    assert "fresh-name" not in registry.available_backends()


def test_custom_backend_registration_and_cleanup(central_eu_problem):
    @registry.register_backend("nullsolver", aliases=("void",))
    class NullBackend:
        name = "nullsolver"

        def solve(self, request):
            return None  # always fails -> registry falls back to heuristic

    try:
        solution = registry.solve(central_eu_problem, backend="void")
        validate_solution(solution)
        assert solution.backend_name == "heuristic"  # graceful fallback
        assert solution.all_placed
    finally:
        del registry._BACKENDS["nullsolver"]
        del registry._ALIASES["void"]


def test_registry_completes_a_partial_incumbent(central_eu_problem):
    # An incumbent that leaves placeable applications unplaced (an exhausted
    # budget) is completed from the heuristic baseline, in its own vector.
    @registry.register_backend("partial-stub")
    class PartialBackend:
        name = "partial-stub"

        def solve(self, request):
            solution = registry.get_backend("heuristic").solve(request)
            solution.assignment[::2] = -1
            return solution

    try:
        solution = registry.solve(central_eu_problem, backend="partial-stub")
        validate_solution(solution)
        assert solution.backend_name == "partial-stub"
        assert solution.all_placed
        baseline = registry.solve(central_eu_problem, backend="heuristic")
        assert np.array_equal(solution.assignment, baseline.assignment)
    finally:
        del registry._BACKENDS["partial-stub"]


# -- cross-backend agreement -----------------------------------------------------

def test_all_backends_feasible_and_within_tolerance(central_eu_problem):
    solutions = {}
    for backend in registry.available_backends():
        solution = registry.solve(central_eu_problem, backend=backend)
        validate_solution(solution)
        assert solution.all_placed
        solutions[backend] = solution
    exact_carbon = solutions["bnb"].total_carbon_g()
    for backend, solution in solutions.items():
        # Heuristics stay within 5% of the exact objective on small instances
        # and never beat it by more than numerical noise.
        assert solution.total_carbon_g() >= exact_carbon - 1e-6, backend
        assert solution.total_carbon_g() <= exact_carbon * 1.05 + 1e-9, backend


def test_backends_agree_on_energy_objective(central_eu_problem):
    values = {}
    for backend in registry.available_backends():
        solution = registry.solve(central_eu_problem, backend=backend,
                                  objective=ObjectiveKind.ENERGY)
        validate_solution(solution)
        values[backend] = solution.total_energy_j()
    assert values["heuristic"] <= values["bnb"] * 1.05 + 1e-9
    assert values["lp-round"] <= values["bnb"] * 1.05 + 1e-9


def test_auto_picks_exact_for_small_and_heuristic_under_tight_budget(central_eu_problem):
    small = registry.solve(central_eu_problem, backend="auto")
    assert small.backend_name == "bnb"
    tight = registry.solve(central_eu_problem, backend="auto", time_budget_s=0.01)
    assert tight.backend_name == "heuristic"
    validate_solution(tight)
    assert tight.all_placed


# -- heuristic backend specifics --------------------------------------------------

def _tight_problem(n_apps: int = 6, n_servers: int = 3) -> PlacementProblem:
    """A capacity-tight instance: each server fits exactly two unit apps."""
    from repro.workloads.application import Application

    apps = [Application(app_id=f"a{i}", workload="ResNet50", source_site="s0",
                        latency_slo_ms=100.0, request_rate_rps=1.0)
            for i in range(n_apps)]
    intensity = np.linspace(100.0, 300.0, n_servers)
    latency = np.zeros((n_apps, n_servers))
    energy = np.full((n_apps, n_servers), 3.6e6)  # 1 kWh per assignment
    demands = [[ResourceVector.of(cpu_cores=1.0) for _ in range(n_servers)]
               for _ in range(n_apps)]
    capacities = [ResourceVector.of(cpu_cores=2.0) for _ in range(n_servers)]
    servers = [_FakeServer(f"srv{j}") for j in range(n_servers)]
    return PlacementProblem(
        applications=apps, servers=servers, latency_ms=latency, energy_j=energy,
        demands=demands, intensity=intensity, capacities=capacities,
        base_power_w=np.full(n_servers, 100.0), current_power=np.zeros(n_servers),
        horizon_hours=1.0)


class _FakeServer:
    """Minimal stand-in exposing the attributes the solver layer reads."""

    def __init__(self, server_id: str):
        self.server_id = server_id
        self.site = "s0"
        self.zone_id = "Z"

    is_on = False


def test_heuristic_respects_capacity_on_tight_instance():
    problem = _tight_problem()
    solution = registry.solve(problem, backend="heuristic")
    validate_solution(solution)
    assert solution.all_placed
    counts = {}
    for j in solution.placements.values():
        counts[j] = counts.get(j, 0) + 1
    assert all(c <= 2 for c in counts.values())  # capacity 2 per server
    # 6 unit apps over capacity-2 servers require all 3 servers on.
    assert float(np.sum(solution.power_on)) == 3.0


# -- the exact tier's fractional path ---------------------------------------------

def _fractional_root_problem() -> PlacementProblem:
    """Two unit apps; the green server fits 1.5 of them, a dirtier one both.

    The LP relaxation splits the second app between the servers, so the
    root is fractional and branch and bound has to round and branch.
    """
    from repro.workloads.application import Application

    apps = [Application(app_id=f"a{i}", workload="ResNet50", source_site="s0",
                        latency_slo_ms=100.0, request_rate_rps=1.0)
            for i in range(2)]
    return PlacementProblem(
        applications=apps, servers=[_FakeServer("green"), _FakeServer("dirty")],
        latency_ms=np.zeros((2, 2)), energy_j=np.full((2, 2), 3.6e6),
        demands=[[ResourceVector.of(cpu_cores=1.0)] * 2 for _ in range(2)],
        intensity=np.array([100.0, 400.0]),
        capacities=[ResourceVector.of(cpu_cores=1.5), ResourceVector.of(cpu_cores=2.0)],
        base_power_w=np.full(2, 100.0), current_power=np.zeros(2), horizon_hours=1.0)


def _augmented_objective(request: SolveRequest, solution) -> float:
    """The tie-broken program objective of a solution (what the bound bounds)."""
    dense = request.dense()
    problem = request.problem
    cost = sum(dense.cost[problem.app_index(a), j] for a, j in solution.placements.items())
    newly_on = (np.asarray(solution.power_on) > 0.5) & ~dense.initially_on
    return float(cost + dense.activation[newly_on].sum())


def test_fractional_root_fixture_is_fractional():
    from repro.core.model_builder import build_placement_model
    from repro.solver.lp_relaxation import solve_lp_relaxation

    program = build_placement_model(_fractional_root_problem()).program
    root = solve_lp_relaxation(program)
    assert root.has_solution
    assert not root.is_integral(program.is_binary)


@pytest.mark.parametrize("max_nodes", [1, 3, 200])
@pytest.mark.parametrize("backend", ["bnb", "lp-round"])
def test_fractional_root_solves_are_valid(backend, max_nodes):
    problem = _fractional_root_problem()
    request = SolveRequest(problem=problem, max_nodes=max_nodes)
    solution = registry.get_backend(backend).solve(request)
    assert solution is not None
    validate_solution(solution, strict=True)
    assert solution.all_placed
    if backend == "lp-round":
        # A rounded answer claims no bound.
        assert np.isnan(solution.solver_gap)
        return
    objective = _augmented_objective(request, solution)
    assert solution.solver_bound <= objective + 1e-9
    if max_nodes == 200:
        assert solution.solver_gap == 0.0
        assert solution.solver_bound == pytest.approx(objective)
        # Optimum: one app per server (splitting beats doubling up on dirty).
        assert sorted(solution.placements.values()) == [0, 1]


def test_heuristic_prefers_green_servers_under_activation():
    # 2 apps fit on one server: the heuristic should consolidate on the
    # lowest-intensity server rather than activating several.
    problem = _tight_problem(n_apps=2, n_servers=3)
    solution = registry.solve(problem, backend="heuristic")
    validate_solution(solution)
    assert set(solution.placements.values()) == {0}  # intensity 100 server
    assert float(np.sum(solution.power_on)) == 1.0


def test_local_search_no_worse_than_pure_greedy(central_eu_problem):
    request = SolveRequest(problem=central_eu_problem)
    pure = GreedyLocalSearchBackend(local_search=False).solve(request)
    improved = GreedyLocalSearchBackend().solve(request)
    assert improved.n_placed >= pure.n_placed
    assert raw_objective_value(request, improved) <= raw_objective_value(request, pure) + 1e-9


def test_zero_time_budget_still_returns_valid_flagged_solution(central_eu_problem):
    # A zero budget can no longer guarantee completeness: the construction
    # path itself is deadline-bound now. The contract is a *valid* solution,
    # flagged construction_truncated whenever the budget cut the fill short.
    for backend in registry.available_backends():
        solution = registry.solve(central_eu_problem, backend=backend, time_budget_s=0.0)
        validate_solution(solution)
        assert solution.all_placed or solution.construction_truncated, backend


def test_negative_time_budget_rejected(central_eu_problem):
    with pytest.raises(ValueError):
        registry.solve(central_eu_problem, time_budget_s=-1.0)


# -- warm starts -------------------------------------------------------------------

def test_warm_start_is_respected_and_improved(central_eu_problem):
    cold = registry.solve(central_eu_problem, backend="heuristic")
    warm = registry.solve(central_eu_problem, backend="heuristic",
                          warm_start=dict(cold.placements))
    validate_solution(warm)
    assert warm.n_placed == cold.n_placed
    assert warm.total_carbon_g() <= cold.total_carbon_g() + 1e-9


def test_warm_start_ignores_stale_entries(central_eu_problem):
    warm_start = {"no-such-app": 0, "another": 99999}
    for app in central_eu_problem.applications[:2]:
        warm_start[app.app_id] = 10**6  # out-of-range server index
    solution = registry.solve(central_eu_problem, backend="heuristic",
                              warm_start=warm_start)
    validate_solution(solution)
    assert solution.all_placed


# -- policy integration ------------------------------------------------------------

def test_policy_accepts_any_registered_backend_name(central_eu_problem):
    for solver in ("heuristic", "bnb", "branch-and-bound", "rounding"):
        solution = CarbonEdgePolicy(solver=solver).place(central_eu_problem)
        validate_solution(solution)
        assert solution.all_placed


def test_policy_time_budget_flows_to_auto_selection(central_eu_problem):
    solution = CarbonEdgePolicy(time_limit_s=0.05).place(central_eu_problem)
    assert solution.backend_name == "heuristic"
    validate_solution(solution)
