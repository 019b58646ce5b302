"""Objective-builder and MILP model-builder tests."""

import numpy as np
import pytest

from repro.core.model_builder import build_placement_model, solution_from_values
from repro.core.objective import (
    ObjectiveKind,
    apply_tie_break,
    carbon_objective_coefficients,
    energy_objective_coefficients,
    latency_objective_coefficients,
    multi_objective_coefficients,
    objective_coefficients,
)
from repro.solver.branch_and_bound import BranchAndBoundSolver
from repro.solver.compile import compile_placement
from repro.solver.lp_relaxation import solve_lp_relaxation


def test_carbon_coefficients_match_problem(central_eu_problem):
    assign, activation = carbon_objective_coefficients(central_eu_problem)
    assert np.allclose(assign, central_eu_problem.operational_carbon_g())
    assert np.allclose(activation, central_eu_problem.activation_carbon_g())


@pytest.mark.parametrize("tiny", [5e-324, 1e-310])
@pytest.mark.parametrize("scale", [1.0, 1e10])
def test_tie_break_survives_subnormal_tie_values(tiny, scale):
    # Objective-equal candidates, ordered by a subnormal tie value: the
    # epsilon quotient 1e-5 * scale / tiny can overflow to inf.
    assign = np.full((1, 3), scale)
    mask = np.array([[True, True, False]])
    tie = np.array([[tiny, 0.0, tiny]])
    out = apply_tie_break(assign, mask, tie)
    assert np.all(np.isfinite(out))
    assert out[0, 1] < out[0, 0]  # the smaller tie value wins the tie
    assert out[0, 2] == scale  # off-mask entries are not perturbed
    assert np.argmin(np.where(mask, out, np.inf)) == 1


def test_tie_break_finite_epsilon_path_is_unchanged():
    assign = np.array([[3.0, 3.0, 7.5], [2.0, 0.0, 2.0]])
    mask = np.array([[True, True, True], [True, False, True]])
    tie = np.array([[4.0, 1.0, 9.0], [0.5, 8.0, 0.25]])
    epsilon = 1e-5 * 7.5 / 9.0
    expected = assign + epsilon * np.where(mask, tie, 0.0)
    assert apply_tie_break(assign, mask, tie).tobytes() == expected.tobytes()


def test_energy_and_latency_coefficients(central_eu_problem):
    assign, activation = energy_objective_coefficients(central_eu_problem)
    assert np.allclose(assign, central_eu_problem.energy_j)
    lat_assign, lat_activation = latency_objective_coefficients(central_eu_problem)
    assert np.allclose(lat_assign, central_eu_problem.latency_ms)
    assert np.all(lat_activation == 0.0)


def test_multi_objective_endpoints(central_eu_problem):
    carbon0, _ = multi_objective_coefficients(central_eu_problem, alpha=0.0)
    energy1, _ = multi_objective_coefficients(central_eu_problem, alpha=1.0)
    feasible = central_eu_problem.feasible_mask()
    # alpha=0 ranks pairs by carbon; alpha=1 by energy (after normalisation the
    # ordering over feasible entries must match the raw coefficients).
    raw_carbon = central_eu_problem.operational_carbon_g()[feasible]
    raw_energy = central_eu_problem.energy_j[feasible]
    assert np.allclose(np.argsort(carbon0[feasible]), np.argsort(raw_carbon))
    assert np.allclose(np.argsort(energy1[feasible]), np.argsort(raw_energy))


def test_multi_objective_normalised_range(central_eu_problem):
    assign, activation = multi_objective_coefficients(central_eu_problem, alpha=0.5)
    assert assign.min() >= -1e-9 and activation.min() >= -1e-9


def test_multi_objective_invalid_alpha(central_eu_problem):
    with pytest.raises(ValueError):
        multi_objective_coefficients(central_eu_problem, alpha=1.5)


def test_objective_dispatch(central_eu_problem):
    for kind in ObjectiveKind:
        assign, activation = objective_coefficients(central_eu_problem, kind, alpha=0.5)
        assert assign.shape == (central_eu_problem.n_applications, central_eu_problem.n_servers)
        assert activation.shape == (central_eu_problem.n_servers,)


def test_model_structure(central_eu_problem):
    placement = build_placement_model(central_eu_problem)
    program, report = placement.program, compile_placement(central_eu_problem).report
    n_servers = central_eu_problem.n_servers
    # One y per server plus one x per feasible pair.
    assert program.n_variables == n_servers + report.n_candidate_pairs
    # One equality (assignment) row per application, over exactly its columns.
    assert program.A_eq.shape == (central_eu_problem.n_applications, program.n_variables)
    assert np.all(program.b_eq == 1.0)
    for i in range(central_eu_problem.n_applications):
        row = program.A_eq[[i]].tocoo()
        assert row.coords[1].tolist() == list(range(placement.offsets[i],
                                                     placement.offsets[i + 1]))
        assert np.all(row.data == 1.0)
    # Servers already on have their y lower bound pinned to 1 (Equation 4).
    assert np.all(program.lower[:n_servers] == 1.0)


def test_model_solution_decoding(central_eu_problem):
    placement = build_placement_model(central_eu_problem)
    result = BranchAndBoundSolver(group_offsets=placement.offsets).solve(placement.program)
    assert result.has_solution
    assignment, power_on = solution_from_values(central_eu_problem, placement, result.values)
    assert assignment.shape == (central_eu_problem.n_applications,)
    assert np.all(assignment >= 0)  # every application placed
    assert power_on.shape == (central_eu_problem.n_servers,)
    # Every used server is powered on in the decoded solution.
    for j in assignment.tolist():
        assert power_on[j] == 1.0


def test_model_lp_relaxation_is_integral_for_assignment_structure(central_eu_problem):
    program = build_placement_model(central_eu_problem).program
    relaxed = solve_lp_relaxation(program)
    assert relaxed.status.has_solution
    assert relaxed.is_integral(program.is_binary, tol=1e-6)


def test_model_without_power_management(central_eu_problem):
    dense = compile_placement(central_eu_problem).dense(manage_power=False)
    program = build_placement_model(central_eu_problem, dense).program
    n_servers = central_eu_problem.n_servers
    # No activation terms on y columns: their objective coefficients are zero.
    assert np.all(program.c[:n_servers] == 0.0)
    assert program.objective_constant == 0.0
    assert np.all(program.lower[:n_servers] == 1.0)


def test_offsets_cover_feasible_apps(central_eu_problem):
    placement = build_placement_model(central_eu_problem)
    report, offsets = compile_placement(central_eu_problem).report, placement.offsets
    sizes = np.diff(offsets)
    assert len(offsets) == central_eu_problem.n_applications + 1
    assert int((sizes > 0).sum()) == central_eu_problem.n_applications - len(report.unplaceable)
    assert offsets[0] == central_eu_problem.n_servers
    assert offsets[-1] == placement.program.n_variables
    for i in range(central_eu_problem.n_applications):
        # Every column of an application's range is one of its x columns.
        pairs = np.arange(offsets[i], offsets[i + 1]) - central_eu_problem.n_servers
        assert np.all(placement.pair_app[pairs] == i)
        assert placement.pair_server[pairs].tolist() == report.candidates_for(i).tolist()


def test_column_layout_is_servers_then_mask_pairs(central_eu_problem):
    placement = build_placement_model(central_eu_problem)
    pair_app, pair_server = np.nonzero(compile_placement(central_eu_problem).report.mask)
    assert placement.pair_app.tolist() == pair_app.tolist()
    assert placement.pair_server.tolist() == pair_server.tolist()
