"""Rounding and repair heuristics for fractional LP solutions.

When the LP relaxation of the placement MILP comes back fractional (or when
the branch-and-bound node budget is exhausted), :func:`round_and_repair`
produces a feasible integral assignment: binary variables are rounded by a
priority order (largest fractional value first), each tentative rounding is
checked against the program's constraints, and infeasible roundings fall back
to 0. The result is not guaranteed optimal, only feasible — callers report it
with :class:`~repro.solver.result.SolveStatus.FEASIBLE`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.solver.milp import LinearProgram
from repro.solver.result import SolveResult, SolveStatus


def round_and_repair(program: LinearProgram, fractional: np.ndarray,
                     groups: Sequence[np.ndarray] | None = None) -> SolveResult:
    """Round a fractional solution to a feasible integral one.

    Parameters
    ----------
    program:
        The program whose constraints must hold.
    fractional:
        Fractional column values (e.g. from the LP relaxation).
    groups:
        Optional column-index groups with an "exactly one of these" semantic
        (the placement's per-application assignment rows). Within a group the
        column with the highest fractional value that keeps the program
        feasible is set to 1 and the rest to 0. Binaries outside any group are
        rounded to the nearest integer.
    """
    groups = [np.asarray(g, dtype=np.intp) for g in groups or ()]
    fractional = np.asarray(fractional, dtype=float)
    values = fractional.copy()
    ungrouped = program.is_binary.copy()
    for group in groups:
        ungrouped[group] = False
        values[group] = 0.0  # a group counts as unassigned until its turn
    values[ungrouped] = np.round(values[ungrouped])

    ub = program.A_ub
    by_column = ub.tocsc() if ub is not None else None
    supports = _support_columns(program)
    for group in groups:
        ranked = group[np.argsort(-fractional[group], kind="stable")]
        for candidate in ranked:
            values[candidate] = 1.0
            if by_column is None:
                break
            start, stop = by_column.indptr[candidate], by_column.indptr[candidate + 1]
            rows = by_column.indices[start:stop]
            # Turn on the single binary each ``x <= y`` style row makes a
            # prerequisite of the candidate.
            for support in supports[rows[by_column.data[start:stop] > 0.0]]:
                if support >= 0 and values[support] < 1.0:
                    values[support] = max(1.0, program.lower[support])
            # Cheap local check: only the <= rows that involve the candidate.
            if np.all(ub[rows] @ values <= program.b_ub[rows] + 1e-6):
                break
            values[candidate] = 0.0
        else:
            # No member keeps the program feasible: leave the group unassigned;
            # the caller treats this as an infeasible rounding.
            return SolveResult(status=SolveStatus.INFEASIBLE)

    if not program.is_feasible(values):
        return SolveResult(status=SolveStatus.INFEASIBLE)
    return SolveResult(status=SolveStatus.FEASIBLE,
                       objective=program.objective_value(values), values=values)


def _support_columns(program: LinearProgram) -> np.ndarray:
    """(m_ub,) the prerequisite column of each ``<= 0`` row, or -1.

    The placement program encodes ``x_ij <= y_j`` style coupling; when
    rounding sets an ``x`` to 1 the corresponding ``y`` must also be 1 for the
    assignment to stand a chance of being feasible. Such rows are detected
    structurally: a ``<= 0`` row with a single negative coefficient, on a
    binary column.
    """
    ub = program.A_ub
    if ub is None:
        return np.zeros(0, dtype=np.intp)
    row_of = np.repeat(np.arange(ub.shape[0]), np.diff(ub.indptr))
    negative = (ub.data < 0.0) & program.is_binary[ub.indices]
    count = np.bincount(row_of[negative], minlength=ub.shape[0])
    supports = np.full(ub.shape[0], -1, dtype=np.intp)
    supports[row_of[negative]] = ub.indices[negative]
    supports[(count != 1) | (program.b_ub != 0.0)] = -1
    return supports


def fractional_binaries(values: np.ndarray, is_binary: np.ndarray,
                        tol: float = 1e-6) -> np.ndarray:
    """Binary columns with fractional values, most fractional first.

    Equally fractional columns keep ascending column order.
    """
    frac = np.abs(values - np.round(values))
    columns = np.flatnonzero(is_binary & (frac > tol))
    return columns[np.argsort(-frac[columns], kind="stable")]
