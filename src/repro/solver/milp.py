"""A small MILP model builder.

:class:`MILPModel` holds named variables (continuous or binary), linear
``<=`` / ``==`` constraints expressed as sparse coefficient dictionaries, and a
linear minimisation objective, with validation so malformed models fail
loudly at build time. :meth:`MILPModel.to_program` exports it to a
:class:`LinearProgram`: the sparse matrix form ``scipy.optimize.linprog``
takes, which is what the LP relaxation, branch and bound and rounding consume.

The placement formulation (Equations 1–7) does not go through the named
builder: :func:`repro.core.model_builder.build_placement_model` assembles its
:class:`LinearProgram` directly from the problem's dense tensors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.sparse import coo_array, csr_array


def csr_from_triplets(rows: np.ndarray, cols: np.ndarray, data: np.ndarray,
                      shape: tuple[int, int]) -> csr_array | None:
    """CSR matrix from COO triplets, exact zeros dropped; ``None`` without rows.

    Indices take the narrowest dtype scipy would choose itself (int32 unless
    the matrix is too large), so the CSC that ``linprog`` derives from it is
    the same one it derives from an equal dense matrix.
    """
    if shape[0] == 0:
        return None
    keep = data != 0.0
    index = np.int32 if max(*shape, len(data)) <= np.iinfo(np.int32).max else np.int64
    coords = (rows[keep].astype(index), cols[keep].astype(index))
    return coo_array((data[keep], coords), shape=shape).tocsr()


@dataclass(frozen=True)
class LinearProgram:
    """A MILP in matrix form.

    Minimise ``c @ x + objective_constant`` subject to ``A_ub @ x <= b_ub``,
    ``A_eq @ x == b_eq`` and ``lower <= x <= upper``, with ``x[is_binary]``
    integral. Either constraint block is ``None`` when it has no rows. These
    are the arrays ``scipy.optimize.linprog`` takes unchanged (and, with
    ``integrality=is_binary``, ``scipy.optimize.milp``).
    """

    c: np.ndarray
    objective_constant: float
    A_ub: csr_array | None
    b_ub: np.ndarray | None
    A_eq: csr_array | None
    b_eq: np.ndarray | None
    lower: np.ndarray
    upper: np.ndarray
    is_binary: np.ndarray

    @property
    def n_variables(self) -> int:
        """Number of columns."""
        return len(self.c)

    def objective_value(self, x: np.ndarray) -> float:
        """Objective value of an assignment."""
        return self.objective_constant + float(self.c @ x)

    def is_feasible(self, x: np.ndarray, tol: float = 1e-6) -> bool:
        """Whether ``x`` satisfies every constraint and bound within ``tol``."""
        if np.any(x < self.lower - tol) or np.any(x > self.upper + tol):
            return False
        if self.A_ub is not None and np.any(self.A_ub @ x > self.b_ub + tol):
            return False
        return self.A_eq is None or bool(np.all(np.abs(self.A_eq @ x - self.b_eq) <= tol))


class VariableKind(Enum):
    """Kind of a decision variable."""

    CONTINUOUS = "continuous"
    BINARY = "binary"


@dataclass(frozen=True)
class Variable:
    """A decision variable with bounds."""

    name: str
    kind: VariableKind = VariableKind.CONTINUOUS
    lower: float = 0.0
    upper: float = 1.0

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError(f"variable {self.name}: lower bound {self.lower} > upper {self.upper}")
        if self.kind is VariableKind.BINARY and not (0.0 <= self.lower and self.upper <= 1.0):
            raise ValueError(f"binary variable {self.name} must have bounds within [0, 1]")


@dataclass(frozen=True)
class LinearConstraint:
    """A linear constraint ``sum(coeff * var) (<=|==) rhs``."""

    name: str
    coefficients: dict[str, float]
    rhs: float
    equality: bool = False

    def __post_init__(self) -> None:
        if not self.coefficients:
            raise ValueError(f"constraint {self.name}: must reference at least one variable")


@dataclass
class MILPModel:
    """A linear minimisation model over named variables.

    Public API of :mod:`repro.solver` for small hand-written models: build
    by name, then :meth:`to_program` gives the :class:`LinearProgram` the
    solvers take. The placement path does not use it; it builds its
    program in matrix form directly.
    """

    name: str = "model"
    variables: dict[str, Variable] = field(default_factory=dict)
    constraints: list[LinearConstraint] = field(default_factory=list)
    objective: dict[str, float] = field(default_factory=dict)
    objective_constant: float = 0.0

    # -- construction ---------------------------------------------------------

    def add_variable(self, name: str, kind: VariableKind = VariableKind.CONTINUOUS,
                     lower: float = 0.0, upper: float = 1.0) -> Variable:
        """Add a variable; raises on duplicate names."""
        if name in self.variables:
            raise ValueError(f"duplicate variable {name!r}")
        var = Variable(name=name, kind=kind, lower=lower, upper=upper)
        self.variables[name] = var
        return var

    def add_binary(self, name: str, lower: float = 0.0, upper: float = 1.0) -> Variable:
        """Add a binary variable (bounds may pin it to 0 or 1)."""
        return self.add_variable(name, kind=VariableKind.BINARY, lower=lower, upper=upper)

    def add_constraint(self, name: str, coefficients: dict[str, float], rhs: float,
                       equality: bool = False) -> LinearConstraint:
        """Add a ``<=`` (default) or ``==`` constraint over existing variables."""
        unknown = [v for v in coefficients if v not in self.variables]
        if unknown:
            raise KeyError(f"constraint {name!r} references unknown variables {unknown}")
        constraint = LinearConstraint(name=name, coefficients=dict(coefficients),
                                      rhs=float(rhs), equality=equality)
        self.constraints.append(constraint)
        return constraint

    def set_objective(self, coefficients: dict[str, float], constant: float = 0.0) -> None:
        """Set the linear minimisation objective."""
        unknown = [v for v in coefficients if v not in self.variables]
        if unknown:
            raise KeyError(f"objective references unknown variables {unknown}")
        self.objective = dict(coefficients)
        self.objective_constant = float(constant)

    def add_objective_term(self, name: str, coefficient: float) -> None:
        """Accumulate a coefficient onto one variable's objective term."""
        if name not in self.variables:
            raise KeyError(f"objective term references unknown variable {name!r}")
        self.objective[name] = self.objective.get(name, 0.0) + float(coefficient)

    # -- introspection ---------------------------------------------------------

    @property
    def n_variables(self) -> int:
        """Number of decision variables."""
        return len(self.variables)

    @property
    def n_constraints(self) -> int:
        """Number of constraints."""
        return len(self.constraints)

    def variable_names(self) -> list[str]:
        """Variable names in insertion order (the column order)."""
        return list(self.variables)

    def binary_names(self) -> list[str]:
        """Names of binary variables in insertion order."""
        return [n for n, v in self.variables.items() if v.kind is VariableKind.BINARY]

    # -- matrix export -----------------------------------------------------------

    def to_program(self) -> LinearProgram:
        """Export to matrix form, columns in insertion order.

        Constraint rows keep their insertion order within the ``<=`` and
        ``==`` blocks. Coefficients of exactly zero are dropped.
        """
        names = self.variable_names()
        index = {n: i for i, n in enumerate(names)}
        n = len(names)

        c = np.zeros(n)
        for var, coeff in self.objective.items():
            c[index[var]] = coeff

        A_ub, b_ub = _constraint_block(
            [con for con in self.constraints if not con.equality], index, n)
        A_eq, b_eq = _constraint_block(
            [con for con in self.constraints if con.equality], index, n)
        variables = list(self.variables.values())
        return LinearProgram(
            c=c, objective_constant=self.objective_constant,
            A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
            lower=np.array([v.lower for v in variables], dtype=float),
            upper=np.array([v.upper for v in variables], dtype=float),
            is_binary=np.array([v.kind is VariableKind.BINARY for v in variables],
                               dtype=bool),
        )

    # -- evaluation --------------------------------------------------------------

    def objective_value(self, values: dict[str, float]) -> float:
        """Objective value of an assignment (missing variables count as 0)."""
        return self.objective_constant + sum(
            coeff * values.get(var, 0.0) for var, coeff in self.objective.items())

    def constraint_violations(self, values: dict[str, float], tol: float = 1e-6) -> list[str]:
        """Names of constraints violated by an assignment (empty when feasible)."""
        violated: list[str] = []
        for con in self.constraints:
            lhs = sum(coeff * values.get(var, 0.0) for var, coeff in con.coefficients.items())
            if con.equality:
                if abs(lhs - con.rhs) > tol:
                    violated.append(con.name)
            elif lhs > con.rhs + tol:
                violated.append(con.name)
        # bound violations reported with a pseudo-name
        for name, var in self.variables.items():
            v = values.get(name, 0.0)
            if v < var.lower - tol or v > var.upper + tol:
                violated.append(f"bound:{name}")
        return violated

    def is_feasible(self, values: dict[str, float], tol: float = 1e-6) -> bool:
        """Whether an assignment satisfies every constraint and bound."""
        return not self.constraint_violations(values, tol=tol)


def _constraint_block(constraints: list[LinearConstraint], index: dict[str, int],
                      n: int) -> tuple[csr_array | None, np.ndarray | None]:
    """(A, b) of one constraint block, or ``(None, None)`` when it is empty."""
    if not constraints:
        return None, None
    rows = [r for r, con in enumerate(constraints) for _ in con.coefficients]
    cols = [index[var] for con in constraints for var in con.coefficients]
    data = [coeff for con in constraints for coeff in con.coefficients.values()]
    matrix = csr_from_triplets(np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp),
                               np.array(data, dtype=float), (len(constraints), n))
    return matrix, np.array([con.rhs for con in constraints], dtype=float)
