"""MILP model-builder tests."""

import numpy as np
import pytest

from repro.solver.milp import MILPModel, Variable, VariableKind


def _knapsack_model():
    """max 3a + 4b s.t. 2a + 3b <= 4  (as a minimisation of the negated objective)."""
    model = MILPModel(name="knapsack")
    model.add_binary("a")
    model.add_binary("b")
    model.add_constraint("cap", {"a": 2.0, "b": 3.0}, rhs=4.0)
    model.set_objective({"a": -3.0, "b": -4.0})
    return model


def test_variable_bounds_validation():
    with pytest.raises(ValueError):
        Variable(name="x", lower=2.0, upper=1.0)
    with pytest.raises(ValueError):
        Variable(name="x", kind=VariableKind.BINARY, lower=-1.0, upper=1.0)


def test_duplicate_variable_rejected():
    model = MILPModel()
    model.add_variable("x")
    with pytest.raises(ValueError):
        model.add_variable("x")


def test_constraint_unknown_variable_rejected():
    model = MILPModel()
    model.add_variable("x")
    with pytest.raises(KeyError):
        model.add_constraint("c", {"y": 1.0}, rhs=1.0)
    with pytest.raises(ValueError):
        model.add_constraint("c", {}, rhs=1.0)


def test_objective_unknown_variable_rejected():
    model = MILPModel()
    with pytest.raises(KeyError):
        model.set_objective({"x": 1.0})
    with pytest.raises(KeyError):
        model.add_objective_term("x", 1.0)


def test_add_objective_term_accumulates():
    model = MILPModel()
    model.add_variable("x")
    model.add_objective_term("x", 1.5)
    model.add_objective_term("x", 0.5)
    assert model.objective["x"] == 2.0


def test_counts_and_binary_names():
    model = _knapsack_model()
    assert model.n_variables == 2
    assert model.n_constraints == 1
    assert model.binary_names() == ["a", "b"]


def test_to_program_shapes():
    model = _knapsack_model()
    model.add_constraint("eq", {"a": 1.0, "b": 1.0}, rhs=1.0, equality=True)
    program = model.to_program()
    assert program.c.tolist() == [-3.0, -4.0]
    assert program.A_ub.shape == (1, 2)
    assert program.A_ub.toarray().tolist() == [[2.0, 3.0]]
    assert program.b_ub.tolist() == [4.0]
    assert program.A_eq.shape == (1, 2)
    assert program.b_eq.tolist() == [1.0]
    assert program.lower.tolist() == [0.0, 0.0]
    assert program.upper.tolist() == [1.0, 1.0]
    assert program.is_binary.tolist() == [True, True]
    assert model.variable_names() == ["a", "b"]


def test_to_program_without_constraints():
    model = MILPModel()
    model.add_variable("x")
    model.set_objective({"x": 1.0})
    program = model.to_program()
    assert program.A_ub is None and program.A_eq is None
    assert program.b_ub is None and program.b_eq is None
    assert program.is_binary.tolist() == [False]


def test_to_program_drops_exact_zero_coefficients():
    model = _knapsack_model()
    model.add_constraint("zero", {"a": 0.0, "b": -0.0}, rhs=1.0)
    program = model.to_program()
    assert program.A_ub.shape == (2, 2)
    assert program.A_ub.nnz == 2


def test_program_feasibility_matches_named_model():
    model = _knapsack_model()
    program = model.to_program()
    for a, b in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, 0.0)):
        values = {"a": a, "b": b}
        assert program.is_feasible(np.array([a, b])) == model.is_feasible(values)
        assert program.objective_value(np.array([a, b])) == \
            pytest.approx(model.objective_value(values))


def test_objective_value_and_constant():
    model = _knapsack_model()
    model.objective_constant = 10.0
    assert model.objective_value({"a": 1.0, "b": 0.0}) == pytest.approx(7.0)


def test_feasibility_checking():
    model = _knapsack_model()
    assert model.is_feasible({"a": 1.0, "b": 0.0})
    assert not model.is_feasible({"a": 1.0, "b": 1.0})  # 2 + 3 > 4
    violations = model.constraint_violations({"a": 1.0, "b": 1.0})
    assert violations == ["cap"]


def test_bound_violations_reported():
    model = MILPModel()
    model.add_binary("x")
    violations = model.constraint_violations({"x": 2.0})
    assert violations == ["bound:x"]
