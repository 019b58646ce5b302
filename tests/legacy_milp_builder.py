"""Frozen named-variable placement builder: the parity oracle's reference.

A verbatim copy of the ``"x[i,j]"``-named placement builder and the dense
``to_dense`` export that preceded the array form of
:func:`repro.core.model_builder.build_placement_model`. It is kept only so
``tests/test_placement_program_parity.py`` can prove that the array builder
hands HiGHS byte-identical input; it is retired together with that test,
one release after the array form shipped. Nothing under ``src/`` imports it.
"""

from __future__ import annotations

import numpy as np

from repro.core.filters import FeasibilityReport
from repro.core.objective import (
    ObjectiveKind,
    apply_tie_break,
    objective_coefficients,
    tie_break_matrix,
)
from repro.core.problem import PlacementProblem
from repro.solver.milp import MILPModel


def x_name(i: int, j: int) -> str:
    """Canonical name of the placement variable x_ij."""
    return f"x[{i},{j}]"


def y_name(j: int) -> str:
    """Canonical name of the power variable y_j."""
    return f"y[{j}]"


def legacy_build_placement_model(
    problem: PlacementProblem,
    report: FeasibilityReport,
    objective: ObjectiveKind = ObjectiveKind.CARBON,
    alpha: float = 0.0,
    manage_power: bool = True,
) -> MILPModel:
    """The Eq. 1–7 MILP over named variables, exactly as it used to be built."""
    model = MILPModel(name="carbon-edge-placement")
    assign_coeff, activation_coeff = objective_coefficients(problem, objective, alpha)
    assign_coeff = apply_tie_break(assign_coeff, report.mask,
                                   tie_break_matrix(problem, objective))

    for j in range(problem.n_servers):
        current = float(problem.current_power[j])
        lower = 1.0 if (not manage_power or current >= 0.5) else 0.0
        model.add_binary(y_name(j), lower=lower, upper=1.0)
    for i in range(problem.n_applications):
        for j in report.candidates_for(i):
            model.add_binary(x_name(i, int(j)))

    objective_terms: dict[str, float] = {}
    constant = 0.0
    for i in range(problem.n_applications):
        for j in report.candidates_for(i):
            objective_terms[x_name(i, int(j))] = float(assign_coeff[i, int(j)])
    if manage_power:
        for j in range(problem.n_servers):
            coeff = float(activation_coeff[j])
            if coeff != 0.0:
                objective_terms[y_name(j)] = objective_terms.get(y_name(j), 0.0) + coeff
                constant -= coeff * float(problem.current_power[j])
    model.set_objective(objective_terms, constant=constant)

    for i in range(problem.n_applications):
        candidates = report.candidates_for(i)
        if len(candidates) == 0:
            continue
        model.add_constraint(
            f"assign[{i}]",
            {x_name(i, int(j)): 1.0 for j in candidates},
            rhs=1.0,
            equality=True,
        )

    for j in range(problem.n_servers):
        apps_here = [i for i in range(problem.n_applications) if report.mask[i, j]]
        if not apps_here:
            continue
        resource_keys = set(problem.capacities[j].keys())
        for i in apps_here:
            resource_keys.update(problem.demands[i][j].keys())
        for key in sorted(resource_keys):
            capacity = problem.capacities[j].get(key)
            coeffs: dict[str, float] = {}
            for i in apps_here:
                demand = problem.demands[i][j].get(key)
                if demand > 0:
                    coeffs[x_name(i, j)] = demand
            if not coeffs:
                continue
            coeffs[y_name(j)] = -capacity
            model.add_constraint(f"capacity[{j},{key}]", coeffs, rhs=0.0)

    for i in range(problem.n_applications):
        for j in report.candidates_for(i):
            model.add_constraint(
                f"active[{i},{int(j)}]",
                {x_name(i, int(j)): 1.0, y_name(int(j)): -1.0},
                rhs=0.0,
            )
    return model


def legacy_to_dense(model: MILPModel) -> dict[str, np.ndarray | None]:
    """The dense ``linprog`` arrays the named model used to export."""
    names = model.variable_names()
    index = {n: i for i, n in enumerate(names)}
    n = len(names)

    c = np.zeros(n)
    for var, coeff in model.objective.items():
        c[index[var]] = coeff

    bounds = np.zeros((n, 2))
    for i, name in enumerate(names):
        var = model.variables[name]
        bounds[i] = (var.lower, var.upper)

    ub_rows, ub_rhs, eq_rows, eq_rhs = [], [], [], []
    for con in model.constraints:
        row = np.zeros(n)
        for var, coeff in con.coefficients.items():
            row[index[var]] = coeff
        if con.equality:
            eq_rows.append(row)
            eq_rhs.append(con.rhs)
        else:
            ub_rows.append(row)
            ub_rhs.append(con.rhs)

    return {
        "c": c,
        "A_ub": np.vstack(ub_rows) if ub_rows else None,
        "b_ub": np.asarray(ub_rhs) if ub_rhs else None,
        "A_eq": np.vstack(eq_rows) if eq_rows else None,
        "b_eq": np.asarray(eq_rhs) if eq_rhs else None,
        "bounds": bounds,
    }
