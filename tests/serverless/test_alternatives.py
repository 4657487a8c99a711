"""Hot spares / deferred capture / checkpoint baseline tests (§2.4, §9)."""

import pytest

from repro.core.baselines import CheckpointRestoreBaseline
from repro.errors import InvalidValueError
from repro.serverless import (
    ClusterSimulator,
    ServingCostModel,
    ShareGPTWorkload,
    SimulationConfig,
)


@pytest.fixture
def costs():
    return ServingCostModel("Llama2-7B")


def simulate(costs, seed=9, rps=2.0, duration=90.0, **kwargs):
    workload = ShareGPTWorkload(rps=rps, duration=duration, seed=seed)
    simulator = ClusterSimulator(costs, SimulationConfig(
        num_gpus=4, cold_start_latency=3.5, **kwargs))
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
        simulator = ClusterSimulator(costs, SimulationConfig(
            num_gpus=2, cold_start_latency=1.0, hot_spares=2,
            keep_alive=5.0))
        simulator.run(workload.generate(), horizon=120)
        spares = [i for i in simulator.instances[simulator.model]
                  if getattr(i, "hot_spare", False)]
        assert len(spares) == 2
        assert not any(i.retired for i in spares)

    def test_spares_plus_initial_bounded_by_gpus(self):
        with pytest.raises(InvalidValueError):
            SimulationConfig(num_gpus=2, initial_instances=1, hot_spares=2)


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


class TestCheckpointBaseline:
    def test_checkpoint_dwarfs_medusa_artifact(self, tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        baseline = CheckpointRestoreBaseline("Tiny-2L")
        comparison = baseline.compare_with_artifact(artifact)
        assert comparison["size_ratio"] > 100
        assert comparison["checkpoint_restore_time"] > 0

    def test_checkpoint_scales_with_model(self):
        small = CheckpointRestoreBaseline("Qwen1.5-0.5B")
        large = CheckpointRestoreBaseline("Qwen1.5-14B")
        kv = 4 * 1024**3
        assert large.checkpoint_bytes(kv) > small.checkpoint_bytes(kv)
        assert large.restore_time(kv) > small.restore_time(kv)
