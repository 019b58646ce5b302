"""LP-relaxation and branch-and-bound tests on known instances."""

import numpy as np
import pytest

from repro.solver.branch_and_bound import BranchAndBoundSolver
from repro.solver.lp_relaxation import solve_lp_relaxation
from repro.solver.milp import MILPModel
from repro.solver.result import SolveStatus


def knapsack(values, weights, capacity):
    """0/1 knapsack as a minimisation program (negated values); column i is x{i}."""
    model = MILPModel(name="knapsack")
    for i, _ in enumerate(values):
        model.add_binary(f"x{i}")
    model.add_constraint("cap", {f"x{i}": w for i, w in enumerate(weights)}, rhs=capacity)
    model.set_objective({f"x{i}": -v for i, v in enumerate(values)})
    return model.to_program()


def test_lp_relaxation_simple_optimum():
    model = MILPModel()
    model.add_variable("x", lower=0.0, upper=10.0)
    model.add_constraint("c", {"x": 1.0}, rhs=4.0)
    model.set_objective({"x": -1.0})
    result = solve_lp_relaxation(model.to_program())
    assert result.status is SolveStatus.OPTIMAL
    assert result.values[0] == pytest.approx(4.0)
    assert result.objective == pytest.approx(-4.0)


def test_lp_relaxation_infeasible():
    model = MILPModel()
    model.add_variable("x", lower=0.0, upper=1.0)
    model.add_constraint("c", {"x": 1.0}, rhs=-1.0)
    model.set_objective({"x": 1.0})
    assert solve_lp_relaxation(model.to_program()).status is SolveStatus.INFEASIBLE


def test_lp_relaxation_column_fixes():
    model = MILPModel()
    model.add_binary("x")
    model.set_objective({"x": 1.0})
    program = model.to_program()
    result = solve_lp_relaxation(program, fixes={0: (1.0, 1.0)})
    assert result.values[0] == pytest.approx(1.0)
    with pytest.raises(IndexError):
        solve_lp_relaxation(program, fixes={1: (0.0, 1.0)})
    # A fix outside the column's own box is infeasible without calling HiGHS.
    assert solve_lp_relaxation(program, fixes={0: (2.0, 2.0)}).status is SolveStatus.INFEASIBLE
    # Fixes narrow a copy of the bounds; the program itself is unchanged.
    assert program.lower.tolist() == [0.0] and program.upper.tolist() == [1.0]


def test_lp_relaxation_empty_model():
    model = MILPModel()
    model.objective_constant = 3.0
    result = solve_lp_relaxation(model.to_program())
    assert result.status is SolveStatus.OPTIMAL
    assert result.objective == pytest.approx(3.0)
    assert result.has_solution
    assert result.values.shape == (0,)
    solved = BranchAndBoundSolver().solve(model.to_program())
    assert solved.status is SolveStatus.OPTIMAL
    assert solved.objective == pytest.approx(3.0)
    assert solved.has_solution


def test_bnb_knapsack_optimum():
    # values (6, 5, 5), weights (4, 3, 3), capacity 6 -> best is items 2+3 = 10.
    model = knapsack([6, 5, 5], [4, 3, 3], 6)
    result = BranchAndBoundSolver().solve(model)
    assert result.has_solution
    assert result.objective == pytest.approx(-10.0)
    assert result.values[1] > 0.5 and result.values[2] > 0.5
    assert not result.values[0] > 0.5


def test_bnb_integral_root_shortcut():
    model = knapsack([1, 1], [1, 1], 2)  # trivially take both
    result = BranchAndBoundSolver().solve(model)
    assert result.status is SolveStatus.OPTIMAL
    assert result.nodes_explored == 1
    assert result.objective == pytest.approx(-2.0)


def test_bnb_infeasible_model():
    model = MILPModel()
    model.add_binary("x", lower=1.0)
    model.add_constraint("c", {"x": 1.0}, rhs=0.0)
    model.set_objective({"x": 1.0})
    result = BranchAndBoundSolver().solve(model.to_program())
    assert result.status is SolveStatus.INFEASIBLE


def test_bnb_respects_node_budget_but_returns_feasible():
    # A larger knapsack where the LP is fractional: limit nodes hard.
    values = [10, 9, 8, 7, 6, 5, 4, 3]
    weights = [5, 5, 4, 4, 3, 3, 2, 2]
    model = knapsack(values, weights, 11)
    result = BranchAndBoundSolver(max_nodes=3).solve(model)
    assert result.has_solution
    assert result.is_integral(np.arange(len(values)))
    # The incumbent is feasible for the capacity constraint.
    chosen_weight = sum(w for i, w in enumerate(weights) if result.values[i] > 0.5)
    assert chosen_weight <= 11


def test_bnb_matches_bruteforce_on_random_instances():
    import itertools
    rng = np.random.default_rng(0)
    for _ in range(5):
        n = 6
        values = rng.integers(1, 20, size=n).tolist()
        weights = rng.integers(1, 10, size=n).tolist()
        capacity = int(sum(weights) * 0.5)
        model = knapsack(values, weights, capacity)
        result = BranchAndBoundSolver(max_nodes=500).solve(model)
        best = 0
        for combo in itertools.product([0, 1], repeat=n):
            if sum(c * w for c, w in zip(combo, weights)) <= capacity:
                best = max(best, sum(c * v for c, v in zip(combo, values)))
        assert -result.objective == pytest.approx(best)
