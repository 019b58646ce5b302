"""LP rounding / repair tests."""

import numpy as np
import pytest

from repro.solver.milp import MILPModel
from repro.solver.result import SolveResult, SolveStatus
from repro.solver.rounding import fractional_binaries, round_and_repair


def _assignment_model():
    """Two apps, two servers, each server holds one app (capacity 1)."""
    model = MILPModel()
    for i in range(2):
        for j in range(2):
            model.add_binary(f"x[{i},{j}]")
    for j in range(2):
        model.add_binary(f"y[{j}]", lower=1.0)
    for i in range(2):
        model.add_constraint(f"assign[{i}]", {f"x[{i},0]": 1.0, f"x[{i},1]": 1.0},
                             rhs=1.0, equality=True)
    for j in range(2):
        model.add_constraint(f"cap[{j}]", {f"x[0,{j}]": 1.0, f"x[1,{j}]": 1.0,
                                           f"y[{j}]": -1.0}, rhs=0.0)
    model.set_objective({f"x[{i},{j}]": 1.0 + i + j for i in range(2) for j in range(2)})
    return model


def _named(model, values):
    """Column values keyed by variable name."""
    return dict(zip(model.variable_names(), values.tolist()))


def test_round_and_repair_respects_groups_and_capacity():
    model = _assignment_model()
    # Columns: x[0,0], x[0,1], x[1,0], x[1,1], y[0], y[1].
    fractional = np.array([0.5, 0.5, 0.5, 0.5, 1.0, 1.0])
    groups = [np.array([0, 1]), np.array([2, 3])]
    program = model.to_program()
    result = round_and_repair(program, fractional, groups=groups)
    assert result.status is SolveStatus.FEASIBLE
    values = _named(model, result.values)
    assert model.is_feasible(values)
    assert program.is_feasible(result.values)
    # Exactly one server per app, and not both on the same server.
    assert values["x[0,0]"] + values["x[0,1]"] == pytest.approx(1.0)
    assert values["x[1,0]"] + values["x[1,1]"] == pytest.approx(1.0)
    assert values["x[0,0]"] + values["x[1,0]"] <= 1.0 + 1e-9
    assert result.objective == pytest.approx(model.objective_value(values))


def test_round_and_repair_reports_infeasible_group():
    model = MILPModel()
    model.add_binary("x")
    model.add_constraint("never", {"x": 1.0}, rhs=-1.0)
    model.set_objective({"x": 1.0})
    result = round_and_repair(model.to_program(), np.array([0.9]), groups=[np.array([0])])
    assert result.status is SolveStatus.INFEASIBLE


def test_round_and_repair_keeps_continuous_values():
    model = MILPModel()
    model.add_variable("c", lower=0.0, upper=10.0)
    model.add_binary("b")
    model.set_objective({"c": 1.0, "b": 1.0})
    result = round_and_repair(model.to_program(), np.array([2.5, 0.7]))
    values = _named(model, result.values)
    assert values["c"] == pytest.approx(2.5)
    assert values["b"] in (0.0, 1.0)


def test_fractional_binaries_ordering():
    values = np.array([0.5, 0.9, 1.0])
    ranked = fractional_binaries(values, np.array([True, True, True]))
    assert ranked.tolist() == [0, 1]  # most fractional first, integral dropped


def test_fractional_binaries_ties_go_to_the_lowest_column():
    values = np.array([0.3, 0.5, 0.5, 0.5, 0.5])
    is_binary = np.array([True, True, True, False, True])
    assert fractional_binaries(values, is_binary).tolist() == [1, 2, 4, 0]


def test_solve_result_helpers():
    result = SolveResult(status=SolveStatus.OPTIMAL, objective=1.0, values=np.array([0.9]))
    assert result.has_solution
    assert not result.is_integral(np.array([0]))
    assert result.is_integral(np.array([0]), tol=0.2)
    assert SolveResult(status=SolveStatus.INFEASIBLE).has_solution is False
    assert SolveResult(status=SolveStatus.OPTIMAL).has_solution is False  # no values
    # A solved program with zero columns still carries a (empty) solution.
    assert SolveResult(status=SolveStatus.OPTIMAL, values=np.zeros(0)).has_solution
    assert SolveStatus.FEASIBLE.has_solution and not SolveStatus.ERROR.has_solution
