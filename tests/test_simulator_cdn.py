"""CDN-scale simulator tests (small configurations for speed)."""

import numpy as np
import pytest

from repro.simulator.cdn import CDNSimulator, default_policies, run_cdn_simulation
from repro.simulator.metrics import EpochRecord, SimulationResult
from repro.simulator.scenario import CDNScenario


@pytest.fixture(scope="module")
def small_result():
    scenario = CDNScenario(continent="EU", n_epochs=2, max_sites=12,
                           apps_per_site_per_epoch=1.5, seed=11)
    return run_cdn_simulation(scenario)


def test_scenario_validation():
    with pytest.raises(ValueError):
        CDNScenario(continent="ASIA")
    with pytest.raises(ValueError):
        CDNScenario(latency_limit_ms=0)
    with pytest.raises(ValueError):
        CDNScenario(n_epochs=0)
    with pytest.raises(ValueError):
        CDNScenario(demand="weird")
    with pytest.raises(ValueError):
        CDNScenario(max_sites=1)


def test_scenario_epoch_arithmetic():
    scenario = CDNScenario(n_epochs=12)
    assert scenario.hours_per_epoch == 730
    assert scenario.epoch_start_hour(0) == 0
    assert scenario.epoch_start_hour(11) == 11 * 730
    with pytest.raises(ValueError):
        scenario.epoch_start_hour(12)


def test_default_policies_names():
    names = [p.name for p in default_policies()]
    assert names == ["Latency-aware", "Energy-aware", "Intensity-aware", "CarbonEdge"]


def test_default_policies_solver_knobs_are_keyword_only():
    """A positional second argument must fail loudly: it would otherwise
    silently set ``hierarchy_regions`` and change every placement."""
    with pytest.raises(TypeError):
        default_policies("greedy", 2)
    policies = default_policies("greedy", hierarchy_regions=2)
    assert all(p.solver_config().hierarchy_regions == 2 for p in policies)


def test_simulation_runs_all_policies(small_result):
    assert set(small_result.policies()) == {"Latency-aware", "Energy-aware",
                                            "Intensity-aware", "CarbonEdge"}
    for policy in small_result.policies():
        assert len(small_result.records[policy]) == 2


def test_carbon_edge_beats_latency_aware(small_result):
    assert small_result.carbon_savings_pct("CarbonEdge") > 0.0
    assert small_result.total_carbon_g("CarbonEdge") <= small_result.total_carbon_g(
        "Intensity-aware") + 1e-6


def test_latency_increase_within_limit(small_result):
    assert 0.0 <= small_result.mean_latency_increase_rtt_ms("CarbonEdge") <= 20.0
    assert small_result.mean_latency_increase_rtt_ms("Latency-aware") == pytest.approx(0.0)


def test_load_shifts_toward_greener_zones(small_result):
    ce = np.median(small_result.hosting_intensity_distribution("CarbonEdge"))
    la = np.median(small_result.hosting_intensity_distribution("Latency-aware"))
    assert ce <= la


def test_monthly_series_lengths(small_result):
    assert len(small_result.monthly_savings_pct("CarbonEdge")) == 2
    assert len(small_result.monthly_latency_increase_rtt_ms("CarbonEdge")) == 2
    per_site = small_result.placements_per_site("CarbonEdge")
    assert all(len(v) == 2 for v in per_site.values())


def test_unknown_policy_raises(small_result):
    with pytest.raises(KeyError):
        small_result.total_carbon_g("Nope")


def test_population_demand_and_capacity_scenarios_run():
    scenario = CDNScenario(continent="US", n_epochs=1, max_sites=10, demand="population",
                           capacity="population", servers_per_site=2, seed=5)
    result = run_cdn_simulation(scenario)
    assert result.total_unplaced("CarbonEdge") == 0
    assert result.carbon_savings_pct("CarbonEdge") >= 0.0


def test_heterogeneous_accelerator_mix_runs():
    scenario = CDNScenario(continent="EU", n_epochs=1, max_sites=10,
                           accelerator_mix=("Orin Nano", "GTX 1080"),
                           workload_mix={"ResNet50": 0.5, "EfficientNetB0": 0.5}, seed=5)
    simulator = CDNSimulator(scenario=scenario)
    devices = {s.device_name for s in simulator.fleet.servers()}
    assert devices <= {"Orin Nano", "GTX 1080"}
    result = simulator.run()
    assert result.carbon_savings_pct("CarbonEdge") >= 0.0


def test_epoch_problem_is_reproducible():
    scenario = CDNScenario(continent="EU", n_epochs=2, max_sites=8, seed=9)
    sim_a = CDNSimulator(scenario=scenario)
    sim_b = CDNSimulator(scenario=scenario)
    pa = sim_a.epoch_problem(0)
    pb = sim_b.epoch_problem(0)
    assert [a.app_id for a in pa.applications] == [b.app_id for b in pb.applications]
    assert np.allclose(pa.intensity, pb.intensity)


def test_simulation_result_container():
    result = SimulationResult(scenario_name="x")
    record = EpochRecord(epoch=0, start_hour=0, policy="P", carbon_g=10.0, energy_j=5.0,
                         mean_one_way_latency_ms=1.0, latency_increase_one_way_ms=0.5,
                         n_placed=3, n_unplaced=1)
    result.add(record)
    assert result.total_carbon_g("P") == 10.0
    assert result.total_energy_j("P") == 5.0
    assert result.total_unplaced("P") == 1
