"""LP relaxation solving via scipy's HiGHS backend."""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from repro.solver.milp import LinearProgram
from repro.solver.result import SolveResult, SolveStatus


def solve_lp_relaxation(program: LinearProgram,
                        fixes: dict[int, tuple[float, float]] | None = None) -> SolveResult:
    """Solve the LP relaxation of a program.

    Binary columns are relaxed to their [lower, upper] box. ``fixes`` narrows
    the box per column index, which is how the branch-and-bound solver fixes
    variables along a branch. The sparse matrices go to HiGHS as they are.
    """
    lower, upper = program.lower, program.upper
    if fixes:
        lower, upper = lower.copy(), upper.copy()
        for col, (lo, hi) in fixes.items():
            if not 0 <= col < program.n_variables:
                raise IndexError(f"fix for column {col} outside 0..{program.n_variables - 1}")
            lower[col] = max(lower[col], lo)
            upper[col] = min(upper[col], hi)
            if lower[col] > upper[col] + 1e-12:
                return SolveResult(status=SolveStatus.INFEASIBLE)

    if program.n_variables == 0:
        return SolveResult(status=SolveStatus.OPTIMAL, objective=program.objective_constant,
                           values=np.zeros(0), gap=0.0)

    res = linprog(
        c=program.c,
        A_ub=program.A_ub,
        b_ub=program.b_ub,
        A_eq=program.A_eq,
        b_eq=program.b_eq,
        bounds=np.column_stack((lower, upper)),
        method="highs",
    )
    if res.status == 2:
        return SolveResult(status=SolveStatus.INFEASIBLE)
    if res.status == 3:
        return SolveResult(status=SolveStatus.UNBOUNDED)
    if not res.success:
        return SolveResult(status=SolveStatus.ERROR)

    objective = program.objective_constant + float(res.fun)
    return SolveResult(status=SolveStatus.OPTIMAL, objective=objective, values=res.x, gap=0.0)
