"""Hot spares / deferred capture / checkpoint baseline tests (§2.4, §9)."""

import pytest

from repro.errors import InvalidValueError
from repro.serverless import (
    ClusterSimulator,
    ModelDeployment,
    ServingCostModel,
    ShareGPTWorkload,
)


@pytest.fixture
def costs():
    return ServingCostModel("Llama2-7B")


def simulate(costs, seed=9, rps=2.0, duration=90.0, **kwargs):
    workload = ShareGPTWorkload(rps=rps, duration=duration, seed=seed)
    simulator = ClusterSimulator(ModelDeployment(
        name=costs.config.name, costs=costs, cold_start_latency=3.5,
        **kwargs), 4)
    return simulator.run(workload.generate(), horizon=duration)


class TestHotSpares:
    def test_hot_spares_cut_tail_latency(self, costs):
        base = simulate(costs)
        spared = simulate(costs, hot_spares=2)
        assert spared.p99_ttft < base.p99_ttft

    def test_hot_spares_waste_gpu_time_at_low_rates(self, costs):
        """§2.4: 'resource wastage during periods of low request rates'."""
        base = simulate(costs, rps=1.0)
        spared = simulate(costs, rps=1.0, hot_spares=3)
        assert spared.wasted_gpu_seconds > 2 * base.wasted_gpu_seconds
        assert spared.gpu_utilization < base.gpu_utilization

    def test_hot_spares_never_retire(self, costs):
        workload = ShareGPTWorkload(rps=0.2, duration=120, seed=3)
        simulator = ClusterSimulator(ModelDeployment(
            name=costs.config.name, costs=costs, cold_start_latency=1.0,
            hot_spares=2), 2, keep_alive=5.0)
        simulator.run(workload.generate(), horizon=120)
        spares = [i for i in simulator.instances[simulator.model]
                  if getattr(i, "hot_spare", False)]
        assert len(spares) == 2
        assert not any(i.retired for i in spares)

    def test_spares_plus_initial_bounded_by_gpus(self, costs):
        with pytest.raises(InvalidValueError):
            ClusterSimulator(ModelDeployment(
                name=costs.config.name, costs=costs, cold_start_latency=1.0,
                initial_instances=1, hot_spares=2), 2)


class TestDeferredCaptureInSim:
    def test_deferred_disperses_latency_into_serving(self, costs):
        """§2.4: same arrival trace, deferred pays capture while serving."""
        normal = simulate(costs, rps=4.0, duration=120)
        deferred = simulate(costs, rps=4.0, duration=120,
                            deferred_capture=True)
        assert deferred.mean_ttft > normal.mean_ttft

    def test_capture_penalty_positive_and_one_off(self, costs):
        penalty = costs.deferred_capture_penalty(8)
        assert penalty > costs.decode_step_time(8, 200, use_graphs=True)
