"""Property-based invariants of the dense greedy placement kernel (hypothesis).

The kernel (:func:`repro.solver.compile.greedy_fill`) runs one of two
schedules: the naive per-row loop when the activation channel is live, and
the speculate-and-revalidate schedule with a wave-vectorised replay when it
is cold. These tests pin the physical invariants every fill must uphold
(capacity never exceeded, demand conservation), local-search monotonicity,
and the bit-identity contracts between the schedules — cold vs naive loop,
batched vs sequential commits, wave vs per-application replay — on
randomized dense instances and on randomized
:class:`~repro.core.problem.PlacementProblem`\\ s.
"""

from __future__ import annotations

from unittest.mock import patch

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.carbon.service import CarbonIntensityService
from repro.carbon.traces import TraceSet
from repro.cluster.fleet import build_regional_fleet
from repro.core.problem import PlacementProblem
from repro.datasets.cities import default_city_catalog
from repro.datasets.regions import CENTRAL_EU
from repro.network.latency import build_latency_matrix
from repro.solver.backend import SolveRequest
from repro.solver.backends import heuristic
from repro.solver.compile import (
    DenseCosts,
    GreedyState,
    _argmin_chunk,
    _greedy_fill_live,
    _pending_order,
    _replay_per_app,
    _replay_waves,
    greedy_fill,
)
from repro.solver.registry import get_backend
from repro.workloads.application import Application

# — randomized dense instances ------------------------------------------------


@st.composite
def dense_instances(draw):
    """A random DenseCosts + warm-started GreedyState + energy matrix.

    Deliberately adversarial for the kernel: contended capacity,
    initially-off servers with nonzero (even negative) activation costs,
    occasional ``inf`` costs inside the mask, and zero-width resource axes.
    """
    n_apps = draw(st.integers(1, 10))
    n_servers = draw(st.integers(1, 6))
    n_keys = draw(st.integers(0, 2))
    mask = draw(hnp.arrays(bool, (n_apps, n_servers)))
    capacity = draw(hnp.arrays(
        float, (n_servers, n_keys),
        elements=st.floats(0.0, 8.0, allow_nan=False, width=32)))
    demand = draw(hnp.arrays(
        float, (n_apps, n_servers, n_keys),
        elements=st.floats(0.0, 5.0, allow_nan=False, width=32)))
    finite_cost = draw(hnp.arrays(
        float, (n_apps, n_servers),
        elements=st.floats(-5.0, 5.0, allow_nan=False, width=32)))
    inf_spots = draw(hnp.arrays(bool, (n_apps, n_servers)))
    inject_inf = draw(st.booleans())
    cost = np.where(mask, finite_cost, np.inf)
    if inject_inf:
        cost = np.where(inf_spots, np.inf, cost)
    activation = draw(hnp.arrays(
        float, (n_servers,),
        elements=st.floats(-2.0, 4.0, allow_nan=False, width=32)))
    initially_on = draw(hnp.arrays(bool, (n_servers,)))
    energy = draw(hnp.arrays(
        float, (n_apps, n_servers),
        elements=st.floats(0.0, 9.0, allow_nan=False, width=32)))
    dense = DenseCosts(keys=[f"r{k}" for k in range(n_keys)], demand=demand,
                       capacity=capacity.astype(float), mask=mask, cost=cost,
                       raw_assign=cost, activation=activation,
                       initially_on=initially_on)
    state = GreedyState(dense)
    warm = draw(st.lists(
        st.tuples(st.integers(0, n_apps - 1), st.integers(0, n_servers - 1)),
        max_size=n_apps))
    for i, j in warm:
        if mask[i, j] and state.assignment[i] < 0 and \
                bool(np.all(demand[i, j] <= state.capacity_left[j] + 1e-9)):
            state.place(i, j)
    return state, energy


COMMON = dict(deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.filter_too_much])


@settings(max_examples=120, **COMMON)
@given(dense_instances())
def test_fill_never_exceeds_capacity(instance):
    state, energy = instance
    greedy_fill(state, energy)
    dense = state.dense
    used = np.zeros_like(dense.capacity)
    for i, j in enumerate(state.assignment):
        if j >= 0:
            used[j] += dense.demand[i, j]
    # The kernel tolerates 1e-9 per placement; allow the accumulated slack.
    tolerance = 1e-9 * max(1, len(state.assignment))
    assert np.all(used <= dense.capacity + tolerance)


@settings(max_examples=120, **COMMON)
@given(dense_instances())
def test_fill_conserves_demand_and_state(instance):
    """Every application is assigned at most once, within its mask, and the
    shared state is exactly the ledger of the placements made."""
    state, energy = instance
    greedy_fill(state, energy)
    dense = state.dense
    n_servers = dense.capacity.shape[0]
    expected_capacity = dense.capacity.copy()
    expected_served = np.zeros(n_servers, dtype=int)
    for i, j in enumerate(state.assignment):
        assert -1 <= j < n_servers
        if j >= 0:
            assert dense.mask[i, j], "placement outside the candidate mask"
            expected_capacity[j] -= dense.demand[i, j]
            expected_served[j] += 1
    np.testing.assert_allclose(state.capacity_left, expected_capacity,
                               rtol=1e-9, atol=1e-9)
    assert np.array_equal(state.served, expected_served)


# — randomized placement problems --------------------------------------------

_CATALOG = default_city_catalog()
_CITIES = CENTRAL_EU.cities(_CATALOG)
_NAMES = [c.name for c in _CITIES]
_LATENCY = build_latency_matrix(_NAMES, _CATALOG.coordinates_array(_NAMES),
                                countries=[c.country for c in _CITIES])

app_strategy = st.builds(
    dict,
    workload=st.sampled_from(["ResNet50", "EfficientNetB0", "YOLOv4", "Sci"]),
    source=st.sampled_from(_NAMES),
    slo_ms=st.sampled_from([6.0, 12.0, 20.0, 40.0]),
    rate_rps=st.floats(min_value=1.0, max_value=40.0),
)

intensity_strategy = st.lists(st.floats(min_value=10.0, max_value=900.0),
                              min_size=5, max_size=5)


def _build_problem(app_specs, intensities):
    fleet = build_regional_fleet(CENTRAL_EU)
    traces = TraceSet.from_mapping({
        zone: np.full(24, value)
        for zone, value in zip(CENTRAL_EU.zone_ids(_CATALOG), intensities)
    })
    carbon = CarbonIntensityService(traces=traces)
    apps = [Application(app_id=f"app-{k}", workload=spec["workload"],
                        source_site=spec["source"], latency_slo_ms=spec["slo_ms"],
                        request_rate_rps=spec["rate_rps"], duration_hours=1.0)
            for k, spec in enumerate(app_specs)]
    return PlacementProblem.build(apps, fleet.servers(), _LATENCY, carbon, hour=0,
                                  horizon_hours=1.0)


@settings(max_examples=20, **COMMON)
@given(st.lists(app_strategy, min_size=1, max_size=10), intensity_strategy)
def test_local_search_objective_monotone(app_specs, intensities):
    """Objective monotonicity: local search only ever improves on the greedy
    construction it starts from (same placements count, lower-or-equal raw
    objective)."""
    from repro.solver.backend import raw_objective_value

    problem = _build_problem(app_specs, intensities)
    request = SolveRequest(problem=problem)
    greedy = get_backend("greedy").solve(request)
    improved = get_backend("heuristic").solve(request)
    assert improved.n_placed >= greedy.n_placed
    if improved.n_placed == greedy.n_placed:
        assert raw_objective_value(request, improved) <= \
            raw_objective_value(request, greedy) + 1e-9


@settings(max_examples=150, **COMMON)
@given(dense_instances())
def test_cold_speculative_schedule_is_bit_identical_to_naive_loop(instance):
    """The serial kernel's speculate-and-revalidate fast path must reproduce
    the naive per-row schedule exactly on every instance it dispatches for.

    ``greedy_fill`` auto-routes cold activation channels onto the batched
    schedule; this test pins the naive loop as the reference arm explicitly
    (adversarial inf-costs-inside-the-mask, warm starts, and zero-width
    resource axes included).
    """
    state, energy = instance
    naive = state.clone()
    _greedy_fill_live(naive, _pending_order(naive, energy))
    auto = state.clone()
    greedy_fill(auto, energy)
    assert np.array_equal(naive.assignment, auto.assignment)
    # Bit-equal, not allclose: the replay must reproduce the naive loop's
    # float subtraction sequence exactly.
    assert np.array_equal(naive.capacity_left, auto.capacity_left)
    assert np.array_equal(naive.served, auto.served)


class _NoDeadline:
    """The one request attribute the local search reads: an unbounded budget."""

    @staticmethod
    def deadline(default_budget_s: float) -> float:
        return float("inf")


def _relocate_one(i: int, state: GreedyState) -> bool:
    """Reference relocation step: move application ``i`` to its best server."""
    dense = state.dense
    j0 = int(state.assignment[i])
    feasible = dense.mask[i] & dense.fits(i, state.capacity_left)
    if j0 >= 0:
        feasible[j0] = True
    if not feasible.any():
        return False
    served_without = state.served.copy()
    if j0 >= 0:
        served_without[j0] -= 1
    activation_pay = dense.activation * ((served_without == 0) & ~dense.initially_on)
    candidate = np.where(feasible, dense.cost[i] + activation_pay, np.inf)
    j1 = int(np.argmin(candidate))
    if not np.isfinite(candidate[j1]):
        return False
    if j0 < 0:
        state.place(i, j1)
        return True
    current = dense.cost[i, j0] + activation_pay[j0]
    if candidate[j1] >= current - 1e-9 or j1 == j0:
        return False
    state.move(i, j0, j1)
    return True


@settings(max_examples=300, **COMMON)
@given(dense_instances(), st.booleans(), st.sampled_from([2, 3, 64]),
       st.sampled_from([1, 8]))
def test_strided_local_search_matches_one_at_a_time_sweep(instance, fill, stride,
                                                          passes):
    """The local search prices each stride of applications at once; it must
    move exactly as the sweep that relocates one application at a time, down
    to the float order of ``capacity_left``. Warm-started states (random
    seeds, unplaced apps, inf costs, negative activations) make moves common;
    small strides put the stride boundaries inside the instance, and a single
    pass shows a skipped move that later passes would repair."""
    state, energy = instance
    if fill:
        greedy_fill(state, energy)
    backend = heuristic.GreedyLocalSearchBackend(max_passes=passes)
    reference = state.clone()
    for _ in range(backend.max_passes):
        if not any([_relocate_one(i, reference) for i in range(len(reference.assignment))]):
            break
    strided = state.clone()
    with patch.object(heuristic, "_DEADLINE_STRIDE", stride):
        backend._improve(_NoDeadline(), strided)
    assert np.array_equal(reference.assignment, strided.assignment)
    assert reference.capacity_left.tobytes() == strided.capacity_left.tobytes()
    assert np.array_equal(reference.served, strided.served)


# — wave-vectorised reconciliation -------------------------------------------


@settings(max_examples=100, **COMMON)
@given(dense_instances())
def test_wave_replay_bit_identical_to_per_app_replay(instance):
    """The wave replay is a pure execution strategy: committing settled
    prefixes in batches must reproduce the per-application reference replay
    bit-for-bit on the same speculative winners — assignment, remaining
    capacity down to float arithmetic order, and served counts."""
    state, energy = instance
    order = _pending_order(state, energy)
    choices = _argmin_chunk(state.dense, order)
    reference = state.clone()
    _replay_per_app(reference, order, choices)
    wave = state.clone()
    _replay_waves(wave, order, choices)
    assert np.array_equal(reference.assignment, wave.assignment)
    assert np.array_equal(reference.capacity_left, wave.capacity_left)
    assert np.array_equal(reference.served, wave.served)
    assert wave.stats.serial_steps <= reference.stats.serial_steps


@settings(max_examples=100, **COMMON)
@given(dense_instances(), st.randoms(use_true_random=False))
def test_place_batch_replays_sequential_place_exactly(instance, rnd):
    """A batched wave commit is arithmetically *the same program* as the
    per-placement loop: ``np.subtract.at`` applies repeated server indices in
    order of appearance, so remaining capacity matches bit-for-bit even when
    a wave lands several placements on one server."""
    state, _ = instance
    n_apps, n_servers = state.dense.mask.shape
    pending = [i for i in range(n_apps) if state.assignment[i] < 0]
    rnd.shuffle(pending)
    apps = pending[:rnd.randint(0, len(pending))]
    servers = [rnd.randrange(n_servers) for _ in apps]

    loop = state.clone()
    for i, j in zip(apps, servers):
        loop.place(int(i), int(j))
    batch = state.clone()
    batch.place_batch(np.asarray(apps, dtype=int),
                      np.asarray(servers, dtype=int))
    assert np.array_equal(loop.assignment, batch.assignment)
    assert np.array_equal(loop.capacity_left, batch.capacity_left)
    assert np.array_equal(loop.served, batch.served)
