"""Parity oracle: the assignment-vector accounting equals the dict-based one.

:class:`repro.core.solution.PlacementSolution` keeps one ``(A,)`` assignment
vector and derives every metric from one gather of the placed ``(i, j)``
pairs. These tests pin it against the frozen dict-backed accounting in
``tests/legacy_solution.py``: the Eq. 6 carbon terms, energy, latency and
latency increase are byte-equal floats, ``apps_per_site`` has the same keys
in the same order, the epoch record's hosting intensities are equal, and
``validate_solution`` reports the same violations, in the same order, on
valid and on deliberately broken solutions.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from legacy_solution import LegacySolution, legacy_validate
from repro.cluster.resources import ResourceVector
from repro.core.problem import PlacementProblem
from repro.core.validation import validate_solution
from repro.simulator.cdn import CDNSimulator, build_epoch_record, default_policies
from repro.simulator.scenario import CDNScenario
from repro.solver import solve
from repro.solver.compile import compile_placement
from repro.workloads.application import Application

BACKENDS = ("greedy", "heuristic", "bnb", "lp-round")
_KEYS = ("cpu_cores", "gpu_mem_gb", "ram_gb")


class _Server:
    """Minimal stand-in exposing the attributes the solver layer reads."""

    is_on = False

    def __init__(self, server_id: str, site: str):
        self.server_id = server_id
        self.site = site
        self.zone_id = "Z"


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def assert_accounting_parity(solution) -> None:
    problem = solution.problem
    ids = problem.app_ids()
    expected = {ids[i]: int(j) for i, j in enumerate(solution.assignment.tolist()) if j >= 0}
    assert list(solution.placements.items()) == list(expected.items())
    assert list(solution.unplaced) == [a for a in ids if a not in expected]
    legacy = LegacySolution(problem=problem, placements=expected,
                            power_on=solution.power_on.copy(),
                            unplaced=list(solution.unplaced))

    assert solution.n_placed == legacy.n_placed
    for metric in ("operational_carbon_g", "activation_carbon_g", "total_carbon_g",
                   "dynamic_energy_j", "activation_energy_j", "total_energy_j",
                   "mean_latency_ms", "max_latency_ms", "latency_increase_ms"):
        assert _bits(getattr(solution, metric)()) == _bits(getattr(legacy, metric)()), metric
    assert list(solution.apps_per_site().items()) == list(legacy.apps_per_site().items())

    record = build_epoch_record(problem, compile_placement(problem), solution, 0, 0)
    assert _bits(record.carbon_g) == _bits(legacy.total_carbon_g())
    assert _bits(record.energy_j) == _bits(legacy.total_energy_j())
    assert _bits(record.mean_one_way_latency_ms) == _bits(legacy.mean_latency_ms())
    assert _bits(record.latency_increase_one_way_ms) == _bits(legacy.latency_increase_ms())
    assert (record.n_placed, record.n_unplaced) == (legacy.n_placed, len(legacy.unplaced))
    assert list(record.apps_per_site.items()) == list(legacy.apps_per_site().items())
    assert [_bits(x) for x in record.hosting_intensities] == \
        [_bits(x) for x in legacy.hosting_intensities()]

    assert validate_solution(solution, strict=False) == legacy_validate(legacy)


@st.composite
def raw_problems(draw):
    """Small raw problems over a few sites, with unplaceable applications."""
    n_apps = draw(st.integers(1, 8))
    n_servers = draw(st.integers(1, 5))
    grid = (n_apps, n_servers)

    def matrix(elements):
        return np.array(draw(st.lists(elements, min_size=n_apps * n_servers,
                                      max_size=n_apps * n_servers))).reshape(grid)

    def vector(elements, size):
        return np.array(draw(st.lists(elements, min_size=size, max_size=size)))

    demand = st.dictionaries(st.sampled_from(_KEYS),
                             st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 2.0]), max_size=3)
    capacities = [ResourceVector(draw(st.dictionaries(
        st.sampled_from(_KEYS), st.sampled_from([0.0, 1.0, 2.0, 4.0]), max_size=3)))
        for _ in range(n_servers)]
    # A 1 ms SLO makes an application unplaceable unless a server is next door.
    slos = vector(st.sampled_from([1.0, 60.0, 250.0]), n_apps)
    apps = [Application(app_id=f"a{i}", workload="ResNet50", source_site="s0",
                        latency_slo_ms=float(slo), request_rate_rps=1.0)
            for i, slo in enumerate(slos)]
    sites = vector(st.sampled_from(["s0", "s1", "s2"]), n_servers)
    return PlacementProblem(
        applications=apps,
        servers=[_Server(f"srv{j}", site) for j, site in enumerate(sites)],
        latency_ms=matrix(st.floats(0.0, 100.0)),
        energy_j=matrix(st.floats(1.0, 1e7)),
        demands=[[ResourceVector(draw(demand)) for _ in range(n_servers)]
                 for _ in range(n_apps)],
        intensity=vector(st.floats(0.0, 900.0), n_servers),
        capacities=capacities,
        base_power_w=vector(st.floats(0.0, 300.0), n_servers),
        current_power=vector(st.sampled_from([0.0, 1.0]), n_servers),
        horizon_hours=1.0,
        supported=matrix(st.booleans()))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw_problems(), st.sampled_from(BACKENDS), st.booleans(), st.data())
def test_backend_solutions_account_like_the_dict_reference(problem, backend, manage_power,
                                                           data):
    solution = solve(problem, backend=backend, manage_power=manage_power)
    assert_accounting_parity(solution)

    # Break the solution: pile everything onto one server, move, unplace and
    # switch off at random. Every violation must be reported as the
    # dict-based validation reported it.
    n_apps, n_servers = problem.n_applications, problem.n_servers
    pile = data.draw(st.none() | st.integers(0, n_servers - 1))
    if pile is not None:
        solution.assignment[:] = pile
    moves = data.draw(st.lists(st.tuples(st.integers(0, n_apps - 1),
                                         st.integers(-1, n_servers - 1)), max_size=4))
    for i, j in moves:
        solution.assignment[i] = j
    for j in data.draw(st.lists(st.integers(0, n_servers - 1), max_size=3)):
        solution.power_on[j] = 1.0 - solution.power_on[j]
    assert_accounting_parity(solution)


@pytest.mark.parametrize("manage_power", [True, False])
@pytest.mark.parametrize("backend", BACKENDS)
def test_central_eu_solutions_account_like_the_dict_reference(central_eu_problem, backend,
                                                              manage_power):
    assert_accounting_parity(solve(central_eu_problem, backend=backend,
                                   manage_power=manage_power))


def test_cdn_epoch_records_account_like_the_dict_reference():
    """Problems assembled from a columnar batch (lazy applications), every
    policy of the fig11 comparison."""
    sim = CDNSimulator(CDNScenario(continent="EU", n_epochs=2, max_sites=8, seed=0))
    for epoch in range(2):
        problem = sim.epoch_problem(epoch)
        for policy in default_policies():
            assert_accounting_parity(policy.timed_place(problem))


def test_strategy_reaches_the_edge_cases():
    """The strategy yields unplaceable applications, and broken solutions
    that trip every constraint the validation checks."""
    from repro.core.filters import filter_feasible_servers

    seen = {"unplaceable": False, "latency SLO": False, "over capacity": False,
            "is powered off": False, "powers it off": False}

    @settings(max_examples=300, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(raw_problems(), st.data())
    def probe(problem, data):
        seen["unplaceable"] |= bool(filter_feasible_servers(problem).unplaceable)
        solution = solve(problem, backend="greedy")
        for i in range(problem.n_applications):
            solution.assignment[i] = data.draw(st.integers(-1, problem.n_servers - 1))
        solution.power_on[:] = data.draw(st.sampled_from([0.0, 1.0]))
        text = " ".join(validate_solution(solution, strict=False))
        for key in seen:
            seen[key] |= key in text

    probe()
    assert all(seen.values()), seen
