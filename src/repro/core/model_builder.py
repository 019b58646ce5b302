"""Translation of a placement problem into the MILP of Equations 1–7.

The model is built directly in matrix form (a
:class:`~repro.solver.milp.LinearProgram`) from the epoch compilation's
:class:`~repro.solver.compile.DenseCosts`, the tensors every other backend
reads; no per-variable names or dicts are made.

Columns
-------
* ``y[0..S-1]`` first — binary, server *j* powered on; its lower bound is the
  current power state (power-state consistency, Equation 4).
* then one ``x`` per candidate pair, in ``np.nonzero(dense.mask)`` row-major
  order — binary, application *i* placed on server *j*. Only pairs that
  survive the feasibility filter get a column, so the latency constraint
  (Equation 2) is enforced structurally. An application's columns are
  contiguous: ``offsets[i]:offsets[i + 1]``.

Rows
----
* ``A_eq`` — Equation 3: one row per placeable application, ascending, with
  1 on each of its pairs.
* ``A_ub`` — Equation 1 first: one row per (server *j*, resource key) with at
  least one positive candidate demand, servers ascending and keys in sorted
  order, with ``-capacity`` on ``y_j`` (dropped when exactly zero). Then
  Equation 5: one ``x_ij - y_j <= 0`` row per pair.

Objective
---------
Equation 6 (or the energy / multi-objective variants): assignment coefficients
on the ``x`` columns and activation coefficients ``(y_j - y^curr_j)`` on the
``y`` columns; the constant ``-Σ y^curr_j·coeff`` is folded into the program's
objective constant so reported objective values equal the solution metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.problem import PlacementProblem
from repro.solver.milp import LinearProgram, csr_from_triplets

if TYPE_CHECKING:  # typing only: the compilation layer imports this package
    from repro.solver.compile import DenseCosts


@dataclass(frozen=True)
class PlacementProgram:
    """The placement MILP in matrix form plus its column map."""

    program: LinearProgram
    #: (P,) application of each ``x`` column (column ``n_servers + p``).
    pair_app: np.ndarray
    #: (P,) server of each ``x`` column.
    pair_server: np.ndarray
    #: (A + 1,) application ``i``'s ``x`` columns are ``offsets[i]:offsets[i + 1]``.
    offsets: np.ndarray


def build_placement_model(problem: PlacementProblem,
                          dense: DenseCosts | None = None) -> PlacementProgram:
    """Build the placement MILP for a problem.

    Parameters
    ----------
    problem:
        The placement problem instance.
    dense:
        The compiled cost tensors to build from (``SolveRequest.dense()``):
        candidate mask, tie-broken assignment cost, activation cost (zero
        when power is unmanaged), demand and capacity. Every backend reads
        the same tensors, so they all minimise the same augmented objective.
        When omitted, the problem's compiled carbon-objective tensors with
        power management are used.

    Returns
    -------
    PlacementProgram
        The program and its column map. Applications without a candidate
        server (``report.unplaceable``) have no columns and no assignment
        row; callers must handle them.
    """
    if dense is None:
        from repro.solver.compile import compile_placement

        dense = compile_placement(problem).dense()
    n_apps, n_servers = problem.n_applications, problem.n_servers
    pair_app, pair_server = np.nonzero(dense.mask)
    n_pairs = len(pair_app)
    n = n_servers + n_pairs
    x_cols = n_servers + np.arange(n_pairs)
    counts = np.bincount(pair_app, minlength=n_apps)
    offsets = n_servers + np.concatenate(([0], np.cumsum(counts)))

    # Objective and bounds ---------------------------------------------------
    current = problem.current_power
    activation = dense.activation
    active = activation != 0.0
    c = np.zeros(n)
    c[:n_servers] = np.where(active, activation, 0.0)
    c[n_servers:] = dense.cost[pair_app, pair_server]
    # Summed sequentially in server order, not pairwise: the constant enters
    # every reported objective and bound.
    constant = 0.0
    for term in (activation * current)[active].tolist():
        constant -= term
    # Power-state consistency (Equation 4): a server that is on stays on.
    # With power unmanaged every server counts as on (``initially_on`` is all
    # True), which pins every y at 1.
    lower = np.zeros(n)
    lower[:n_servers] = np.where(dense.initially_on | (current >= 0.5), 1.0, 0.0)

    # Equation 3: exactly-one assignment per placeable application -----------
    placeable = counts > 0
    eq_row = np.cumsum(placeable) - 1
    n_eq = int(placeable.sum())
    A_eq = csr_from_triplets(eq_row[pair_app], x_cols, np.ones(n_pairs), (n_eq, n))

    # Equation 1: capacity per server and resource dimension -----------------
    capacity = dense.capacity                                        # (S, K)
    pair_demand = dense.demand[pair_app, pair_server]                # (P, K)
    demand_pair, demand_key = np.nonzero(pair_demand > 0)
    has_row = np.zeros(capacity.shape, dtype=bool)
    has_row[pair_server[demand_pair], demand_key] = True
    row_server, row_key = np.nonzero(has_row)
    n_capacity = len(row_server)
    row_index = np.cumsum(has_row.ravel()).reshape(has_row.shape) - 1

    # Equation 5: assignments require an active server ------------------------
    active_rows = n_capacity + np.arange(n_pairs)

    n_ub = n_capacity + n_pairs
    A_ub = csr_from_triplets(
        np.concatenate((row_index[pair_server[demand_pair], demand_key],
                        np.arange(n_capacity), active_rows, active_rows)),
        np.concatenate((n_servers + demand_pair, row_server, x_cols, pair_server)),
        np.concatenate((pair_demand[demand_pair, demand_key],
                        -capacity[row_server, row_key],
                        np.ones(n_pairs), -np.ones(n_pairs))),
        (n_ub, n))

    program = LinearProgram(
        c=c, objective_constant=constant,
        A_ub=A_ub, b_ub=np.zeros(n_ub) if n_ub else None,
        A_eq=A_eq, b_eq=np.ones(n_eq) if n_eq else None,
        lower=lower, upper=np.ones(n), is_binary=np.ones(n, dtype=bool))
    return PlacementProgram(program=program, pair_app=pair_app,
                            pair_server=pair_server, offsets=offsets)


def solution_from_values(problem: PlacementProblem, placement: PlacementProgram,
                         values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decode program column values into an (A,) assignment vector and power_on.

    An application goes to its first candidate server (ascending) whose ``x``
    exceeds 0.5, and is unplaced (-1) when none does. Any server hosting an
    application is on regardless of ``y``.
    """
    n_servers = problem.n_servers
    chosen = np.flatnonzero(values[n_servers:] > 0.5)
    apps, first = np.unique(placement.pair_app[chosen], return_index=True)
    servers = placement.pair_server[chosen[first]]
    assignment = np.full(problem.n_applications, -1, dtype=np.intp)
    assignment[apps] = servers
    power_on = problem.current_power.copy()
    power_on[values[:n_servers] > 0.5] = 1.0
    power_on[servers] = 1.0
    return assignment, power_on
