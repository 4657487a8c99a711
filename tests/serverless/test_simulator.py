"""Cluster simulator tests: conservation, scaling, cold-start effects."""

import pytest

from repro.errors import InvalidValueError
from repro.serverless import (
    ClusterSimulator,
    ServingCostModel,
    ShareGPTWorkload,
    SimulationConfig,
)
from repro.serverless.workload import Request


@pytest.fixture
def costs():
    return ServingCostModel("Llama2-7B")


def simulate(costs, rps=2.0, duration=60.0, seed=1, **config_kwargs):
    workload = ShareGPTWorkload(rps=rps, duration=duration, seed=seed)
    simulator = ClusterSimulator(costs, SimulationConfig(**config_kwargs))
    return simulator.run(workload.generate(), horizon=duration), simulator


class TestConservation:
    def test_every_request_gets_a_ttft(self, costs):
        metrics, _sim = simulate(costs, rps=2, duration=60)
        assert len(metrics.ttfts) == metrics.arrived

    def test_every_request_completes_under_drain(self, costs):
        metrics, _sim = simulate(costs, rps=2, duration=60)
        assert len(metrics.latencies) == metrics.arrived

    def test_latency_at_least_ttft_floor(self, costs):
        metrics, _sim = simulate(costs, rps=1, duration=60)
        floor = costs.prefill_time(1)
        assert all(t >= floor for t in metrics.ttfts)


class TestScaling:
    def test_scale_from_zero_pays_cold_start(self, costs):
        metrics, _sim = simulate(costs, rps=1, duration=30,
                                 cold_start_latency=5.0,
                                 initial_instances=0)
        assert metrics.cold_starts >= 1
        assert max(metrics.ttfts) > 5.0    # someone waited for the cold start

    def test_warm_initial_instance_avoids_first_cold_start(self, costs):
        cold, _ = simulate(costs, rps=1, duration=30, seed=3,
                           cold_start_latency=5.0, initial_instances=0)
        warm, _ = simulate(costs, rps=1, duration=30, seed=3,
                           cold_start_latency=5.0, initial_instances=1)
        assert warm.p99_ttft < cold.p99_ttft

    def test_gpu_pool_bounds_instances(self, costs):
        _metrics, simulator = simulate(costs, rps=20, duration=30,
                                       num_gpus=2, cold_start_latency=1.0)
        live_peak = len(simulator.instances[simulator.model])
        retired = sum(1 for i in simulator.instances[simulator.model] if i.retired)
        assert live_peak - retired <= 2

    def test_shorter_cold_start_improves_tail(self, costs):
        slow, _ = simulate(costs, rps=4, duration=120, seed=5,
                           cold_start_latency=4.0)
        fast, _ = simulate(costs, rps=4, duration=120, seed=5,
                           cold_start_latency=1.0)
        assert fast.p99_ttft < slow.p99_ttft

    def test_no_graphs_slows_serving(self, costs):
        graphs, _ = simulate(costs, rps=6, duration=120, seed=6,
                             use_cuda_graphs=True)
        eager, _ = simulate(costs, rps=6, duration=120, seed=6,
                            use_cuda_graphs=False)
        assert eager.mean_ttft >= graphs.mean_ttft


class TestThroughput:
    def test_underloaded_throughput_tracks_arrival_rate(self, costs):
        metrics, _ = simulate(costs, rps=2, duration=300)
        assert metrics.throughput == pytest.approx(2.0, rel=0.15)

    def test_saturation_caps_throughput(self, costs):
        light, _ = simulate(costs, rps=5, duration=120, seed=7, num_gpus=1)
        heavy, _ = simulate(costs, rps=50, duration=120, seed=7, num_gpus=1)
        assert heavy.throughput < 50 * 0.8   # cannot keep up
        assert heavy.throughput >= light.throughput * 0.5


class TestConfigValidation:
    def test_bad_configs_rejected(self):
        with pytest.raises(InvalidValueError):
            SimulationConfig(num_gpus=0)
        with pytest.raises(InvalidValueError):
            SimulationConfig(num_gpus=1, initial_instances=2)


class TestArtifactStoreWiring:
    def test_cold_starts_fetch_through_store(self, costs, tmp_path,
                                             tiny2l_artifact):
        from repro.core.store import ArtifactStore
        artifact, _ = tiny2l_artifact
        store = ArtifactStore(tmp_path)
        store.put(artifact)
        key = (artifact.gpu_name, artifact.model_name)
        metrics, _sim = simulate(costs, rps=2, duration=60,
                                 cold_start_latency=2.0,
                                 artifact_store=store, artifact_key=key)
        fetches = metrics.store_cache_hits + metrics.store_cache_misses
        assert fetches == metrics.cold_starts >= 1
        # First fetch deserializes; repeats on this node hit the LRU.
        assert metrics.store_cache_misses == 1
        summary = metrics.summary()
        assert summary["store_cache_hits"] == float(metrics.store_cache_hits)
        assert summary["store_cache_misses"] == 1.0

    def test_no_store_records_no_cache_traffic(self, costs):
        metrics, _sim = simulate(costs, rps=2, duration=60,
                                 cold_start_latency=2.0)
        assert metrics.store_cache_hits == metrics.store_cache_misses == 0
