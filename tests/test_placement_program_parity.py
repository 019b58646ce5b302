"""Parity oracle: the array-form placement program equals the named builder's.

:func:`repro.core.model_builder.build_placement_model` builds the Eq. 1–7
program straight from the problem's dense tensors. These tests pin it against
the frozen named-variable builder in ``tests/legacy_milp_builder.py``: the
objective, the bounds, the right-hand sides and the CSC matrix HiGHS
receives must be byte-equal, and ``linprog`` must return the same ``x``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy.optimize import linprog
from scipy.sparse import coo_array, csc_array, issparse, vstack

from legacy_milp_builder import legacy_build_placement_model, legacy_to_dense
from repro.cluster.resources import ResourceVector
from repro.core.filters import filter_feasible_servers
from repro.core.model_builder import build_placement_model
from repro.core.objective import ObjectiveKind, objective_coefficients, tie_break_matrix
from repro.core.problem import PlacementProblem
from repro.solver.compile import DenseCosts
from repro.workloads.application import Application

_KEYS = ("cpu_cores", "gpu_mem_gb", "ram_gb")


class _Server:
    """Minimal stand-in exposing the attributes the solver layer reads."""

    is_on = False

    def __init__(self, server_id: str):
        self.server_id = server_id
        self.site = "s0"
        self.zone_id = "Z"


def _highs_matrix(A_ub, A_eq, n: int) -> csc_array:
    """The CSC matrix ``linprog(method="highs")`` hands to HiGHS.

    Mirrors scipy's input cleaning: each block becomes a COO copy when either
    is sparse (a dense array otherwise), the blocks are stacked ``A_ub`` over
    ``A_eq``, and the stack is converted to CSC.
    """
    if issparse(A_ub) or issparse(A_eq):
        blocks = [coo_array((0, n) if A is None else A, dtype=float, copy=True)
                  for A in (A_ub, A_eq)]
        return csc_array(vstack(blocks))
    blocks = [np.zeros((0, n)) if A is None else np.array(A, dtype=float)
              for A in (A_ub, A_eq)]
    return csc_array(np.vstack(blocks))


def _same_bytes(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_program_parity(problem: PlacementProblem, report, objective: ObjectiveKind,
                          alpha: float, manage_power: bool) -> None:
    legacy_model = legacy_build_placement_model(problem, report, objective=objective,
                                                alpha=alpha, manage_power=manage_power)
    legacy = legacy_to_dense(legacy_model)
    assign, activation = objective_coefficients(problem, objective, alpha)
    if not manage_power:
        activation = np.zeros_like(activation)
    dense = DenseCosts.from_matrices(problem, report, assign, activation,
                                     manage_power=manage_power,
                                     tie_breaker=tie_break_matrix(problem, objective))
    placement = build_placement_model(problem, dense)
    program = placement.program
    n = program.n_variables

    assert n == legacy_model.n_variables
    assert _same_bytes(program.c, legacy["c"])
    assert np.asarray(program.objective_constant).tobytes() == \
        np.asarray(legacy_model.objective_constant).tobytes()
    assert _same_bytes(program.lower, legacy["bounds"][:, 0])
    assert _same_bytes(program.upper, legacy["bounds"][:, 1])
    assert _same_bytes(program.b_ub, legacy["b_ub"])
    assert _same_bytes(program.b_eq, legacy["b_eq"])
    assert program.is_binary.all()

    ours = _highs_matrix(program.A_ub, program.A_eq, n)
    theirs = _highs_matrix(legacy["A_ub"], legacy["A_eq"], n)
    assert ours.shape == theirs.shape
    assert _same_bytes(ours.indptr, theirs.indptr)
    assert _same_bytes(ours.indices, theirs.indices)
    assert _same_bytes(ours.data, theirs.data)

    if n == 0:
        return
    ours_res = _linprog(program.c, program.A_ub, program.b_ub, program.A_eq, program.b_eq,
                        np.column_stack((program.lower, program.upper)))
    theirs_res = _linprog(legacy["c"], legacy["A_ub"], legacy["b_ub"], legacy["A_eq"],
                          legacy["b_eq"], legacy["bounds"])
    if isinstance(theirs_res, str):
        # linprog refused the input (e.g. a non-finite tie-broken cost); it
        # must refuse the array form the same way.
        assert ours_res == theirs_res
        return
    assert ours_res.status == theirs_res.status
    if theirs_res.success:
        assert _same_bytes(ours_res.x, theirs_res.x)
        assert ours_res.fun == theirs_res.fun


def _linprog(c, A_ub, b_ub, A_eq, b_eq, bounds):
    """``linprog(method="highs")``, or its error message when it refuses the input."""
    try:
        return linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds,
                       method="highs")
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("manage_power", [True, False])
@pytest.mark.parametrize("objective", list(ObjectiveKind))
def test_central_eu_program_is_byte_identical(central_eu_problem, objective, manage_power):
    report = filter_feasible_servers(central_eu_problem)
    assert_program_parity(central_eu_problem, report, objective, 0.5, manage_power)


@st.composite
def raw_problems(draw):
    """Small raw problems with unplaceable apps and zero-capacity dimensions.

    Demands include ``1e-10``, which passes the capacity filter's ``1e-9``
    slack against a zero capacity: the capacity row then exists and its
    ``y`` coefficient is ``-0.0``, which must be dropped.
    """
    n_apps = draw(st.integers(1, 6))
    n_servers = draw(st.integers(1, 4))
    amount = st.sampled_from([0.0, 1e-10, 0.5, 1.0, 2.0])
    vector = st.dictionaries(st.sampled_from(_KEYS), amount, max_size=3)
    capacities = [ResourceVector(draw(st.dictionaries(
        st.sampled_from(_KEYS), st.sampled_from([0.0, 1.0, 2.0, 4.0]), max_size=3)))
        for _ in range(n_servers)]
    demands = [[ResourceVector(draw(vector)) for _ in range(n_servers)]
               for _ in range(n_apps)]
    floats = st.floats(min_value=0.0, max_value=100.0)
    grid = (n_apps, n_servers)
    latency = np.array(draw(st.lists(floats, min_size=n_apps * n_servers,
                                     max_size=n_apps * n_servers))).reshape(grid)
    energy = np.array(draw(st.lists(st.floats(1.0, 1e7), min_size=n_apps * n_servers,
                                    max_size=n_apps * n_servers))).reshape(grid)
    supported = np.array(draw(st.lists(st.booleans(), min_size=n_apps * n_servers,
                                       max_size=n_apps * n_servers))).reshape(grid)
    # A 1 ms SLO makes an application unplaceable unless a server is next door.
    slos = draw(st.lists(st.sampled_from([1.0, 60.0, 250.0]), min_size=n_apps,
                         max_size=n_apps))
    apps = [Application(app_id=f"a{i}", workload="ResNet50", source_site="s0",
                        latency_slo_ms=slo, request_rate_rps=1.0)
            for i, slo in enumerate(slos)]
    problem = PlacementProblem(
        applications=apps, servers=[_Server(f"srv{j}") for j in range(n_servers)],
        latency_ms=latency, energy_j=energy, demands=demands,
        intensity=np.array(draw(st.lists(st.floats(0.0, 900.0), min_size=n_servers,
                                         max_size=n_servers))),
        capacities=capacities,
        base_power_w=np.array(draw(st.lists(st.floats(0.0, 300.0), min_size=n_servers,
                                            max_size=n_servers))),
        current_power=np.array(draw(st.lists(st.sampled_from([0.0, 1.0]),
                                             min_size=n_servers, max_size=n_servers))),
        horizon_hours=1.0, supported=supported)
    report = filter_feasible_servers(problem, check_capacity=draw(st.booleans()))
    return problem, report


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw_problems(), st.sampled_from(list(ObjectiveKind)), st.booleans())
def test_raw_program_is_byte_identical(instance, objective, manage_power):
    problem, report = instance
    assert_program_parity(problem, report, objective, 0.5, manage_power)


def test_strategy_reaches_the_edge_cases():
    """The hypothesis strategy covers unplaceable apps and a dropped ``-0.0``."""
    unplaceable = dropped_zero = False

    @settings(max_examples=300, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(raw_problems())
    def probe(instance):
        nonlocal unplaceable, dropped_zero
        problem, report = instance
        unplaceable |= bool(report.unplaceable) and len(report.unplaceable) < problem.n_applications
        _, servers = np.nonzero(report.mask)
        zero_capacity = problem.capacity_dense()[servers] == 0.0
        dropped_zero |= bool(np.any((problem.demand_dense()[report.mask] > 0) & zero_capacity))

    probe()
    assert unplaceable and dropped_zero
