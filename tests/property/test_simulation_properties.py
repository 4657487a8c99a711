"""Property-based tests of workload + cluster simulation invariants."""

from hypothesis import given, settings, strategies as st

from repro.engine.loadplan import ScheduledStage, Timeline
from repro.serverless import (
    ClusterSimulator,
    ColdStartProfile,
    ModelDeployment,
    MultiModelCluster,
    ServingCostModel,
    ShareGPTWorkload,
    SimulationConfig,
    TaggedRequest,
)
from repro.serverless.workload import Request
from repro.utils.stats import percentile

_COSTS = ServingCostModel("Qwen1.5-4B")


class TestSimulationInvariants:
    @settings(max_examples=12, deadline=None)
    @given(rps=st.floats(0.5, 6.0), seed=st.integers(0, 10_000),
           cold=st.floats(0.1, 5.0))
    def test_conservation_and_sane_ttfts(self, rps, seed, cold):
        workload = ShareGPTWorkload(rps=rps, duration=40, seed=seed)
        requests = workload.generate()
        simulator = ClusterSimulator(_COSTS, SimulationConfig(
            num_gpus=2, cold_start_latency=cold))
        metrics = simulator.run(requests, horizon=40)
        assert metrics.arrived == len(requests)
        assert len(metrics.ttfts) == len(requests)      # no request lost
        assert len(metrics.latencies) == len(requests)  # all drained
        assert all(t > 0 for t in metrics.ttfts)
        assert all(lat >= 0 for lat in metrics.latencies)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_cold_start_monotonicity(self, seed):
        """A strictly shorter cold start never worsens mean TTFT."""
        workload = ShareGPTWorkload(rps=3, duration=60, seed=seed)
        requests = workload.generate()
        means = []
        for cold in (0.5, 5.0):
            simulator = ClusterSimulator(_COSTS, SimulationConfig(
                num_gpus=2, cold_start_latency=cold))
            means.append(simulator.run(requests, horizon=60).mean_ttft)
        assert means[0] <= means[1] + 1e-9

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_determinism(self, seed):
        workload = ShareGPTWorkload(rps=2, duration=30, seed=seed)
        requests = workload.generate()
        runs = []
        for _ in range(2):
            simulator = ClusterSimulator(_COSTS, SimulationConfig(num_gpus=2))
            runs.append(simulator.run(requests, horizon=30).ttfts)
        assert runs[0] == runs[1]


def _staged_profile():
    stages = [ScheduledStage("fetch_artifact", 0.0, 0.6, lane="disk"),
              ScheduledStage("restore", 0.6, 1.0, lane="gpu_compute")]
    return ColdStartProfile(loading_time=1.0,
                            timeline=Timeline(None, stages))


class TestStarvedModelProperty:
    @settings(max_examples=30, deadline=None)
    @given(models=st.integers(3, 5), data=st.data(),
           trace=st.lists(st.tuples(st.integers(0, 4),
                                    st.floats(0.0, 60.0, allow_nan=False),
                                    st.integers(1, 40)),
                          min_size=1, max_size=40),
           placement=st.sampled_from(["flat", "locality"]),
           autoscale=st.sampled_from(["keep-alive", "cold-cost",
                                      "queue-slo"]))
    def test_every_arrival_gets_a_ttft(self, models, data, trace,
                                       placement, autoscale):
        """More deployments than GPUs: starved models wait, never drop."""
        gpus = data.draw(st.integers(1, models - 1))
        staged = data.draw(st.lists(st.booleans(), min_size=models,
                                    max_size=models))
        deployments = [
            ModelDeployment(name=f"m{i}", costs=_COSTS,
                            cold_start_latency=1.0, max_running=4,
                            profile=_staged_profile() if staged[i] else None)
            for i in range(models)]
        tagged = sorted(
            (TaggedRequest(f"m{model % models}", Request(
                request_id=i, arrival_time=arrival, prompt_tokens=64,
                output_tokens=output))
             for i, (model, arrival, output) in enumerate(trace)),
            key=lambda t: t.request.arrival_time)
        cluster = MultiModelCluster(deployments, num_gpus=gpus,
                                    placement=placement,
                                    autoscale=autoscale, keep_alive=5.0)
        per_model = cluster.run(tagged, horizon=60.0)
        for metrics in per_model.values():
            assert len(metrics.ttfts) == metrics.arrived
        assert sum(m.arrived for m in per_model.values()) == len(tagged)
        assert cluster.gpus_in_use <= gpus


class TestPercentileProperties:
    @settings(max_examples=80, deadline=None)
    @given(values=st.lists(st.floats(0, 1e6), min_size=1, max_size=200),
           q=st.floats(0, 100))
    def test_percentile_bounded_by_extremes(self, values, q):
        result = percentile(values, q)
        slack = 1e-9 * max(abs(v) for v in values)   # interpolation rounding
        assert min(values) - slack <= result <= max(values) + slack

    @settings(max_examples=80, deadline=None)
    @given(values=st.lists(st.floats(0, 1e6), min_size=1, max_size=200),
           q_low=st.floats(0, 100), q_high=st.floats(0, 100))
    def test_percentile_monotone_in_q(self, values, q_low, q_high):
        if q_low > q_high:
            q_low, q_high = q_high, q_low
        low = percentile(values, q_low)
        high = percentile(values, q_high)
        assert low <= high + 1e-12 * max(abs(low), abs(high))
