"""Golden-metric equivalence of the kernel-based simulators.

``golden_sim_metrics.json`` was recorded from the pre-refactor simulators
(the ones with private heapq loops) at fixed seeds.  Re-running the same
scenarios on the :mod:`repro.sim` kernel must reproduce every scalar
*bit-exactly* — not approximately: JSON round-trips floats exactly, so
``==`` holds only if the refactor preserved event order, tie-breaking,
and accounting to the last ulp.  Scalar-mode cold starts (no
``ColdStartProfile``) are the compatibility surface; the stage-granular
path is new behaviour and covered elsewhere.
"""

import json
from pathlib import Path

import pytest

from repro.serverless import (
    ClusterSimulator,
    ModelDeployment,
    MultiModelCluster,
    ServingCostModel,
    ShareGPTWorkload,
    tag_workloads,
)

GOLDEN_PATH = Path(__file__).parent / "golden_sim_metrics.json"

#: Same-seed scenarios the goldens were recorded from (pre-refactor):
#: ``deployment`` holds the ModelDeployment fields, ``pool`` the pool's
#: options; every pool has ``gpus`` GPUs (4 unless given).
SINGLE_SCENARIOS = {
    "baseline": dict(rps=2.0, duration=60.0, seed=1, model="Llama2-7B",
                     deployment=dict(cold_start_latency=3.0)),
    "hot_burst": dict(rps=6.0, duration=120.0, seed=5, model="Llama2-7B",
                      deployment=dict(cold_start_latency=4.0), gpus=2),
    "warm_floor": dict(rps=1.0, duration=30.0, seed=3, model="Qwen1.5-4B",
                       deployment=dict(cold_start_latency=5.0,
                                       initial_instances=1, hot_spares=1)),
    "no_drain": dict(rps=3.0, duration=45.0, seed=9, model="Qwen1.5-4B",
                     deployment=dict(cold_start_latency=2.0),
                     pool=dict(drain=False)),
    "eager_serving": dict(rps=4.0, duration=90.0, seed=7,
                          model="Llama2-7B",
                          deployment=dict(cold_start_latency=1.5,
                                          use_cuda_graphs=False)),
    "deferred_capture": dict(rps=4.0, duration=90.0, seed=7,
                             model="Llama2-7B",
                             deployment=dict(cold_start_latency=1.5,
                                             deferred_capture=True)),
}


def single_run(name: str, **pool_kwargs):
    """Run one single-model scenario; returns ``(simulator, metrics)``.

    ``pool_kwargs`` add pool options to the scenario's own.
    """
    scenario = SINGLE_SCENARIOS[name]
    workload = ShareGPTWorkload(rps=scenario["rps"],
                                duration=scenario["duration"],
                                seed=scenario["seed"])
    model = scenario["model"]
    deployment = ModelDeployment(name=model, costs=ServingCostModel(model),
                                 **scenario["deployment"])
    simulator = ClusterSimulator(deployment, scenario.get("gpus", 4),
                                 **scenario.get("pool", {}), **pool_kwargs)
    metrics = simulator.run(workload.generate(),
                            horizon=scenario["duration"])
    return simulator, metrics


MULTI_SCENARIOS = {"light": 1.0, "heavy": 4.0}


@pytest.fixture(scope="module")
def golden():
    """The recorded pre-refactor metric snapshots."""
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def assert_matches(snap, metrics, context):
    """Every golden scalar must equal the fresh run's, bit for bit.

    The comparison iterates the *golden's* keys: the refactor may add new
    summary counters (stage breakdowns, p90) but must not change any
    recorded one.
    """
    summary = metrics.summary()
    for key, value in snap["summary"].items():
        assert summary[key] == value, (context, key)
    assert metrics.provisioned_gpu_seconds == snap[
        "provisioned_gpu_seconds"], context
    assert metrics.busy_gpu_seconds == snap["busy_gpu_seconds"], context
    assert sum(metrics.ttfts) == snap["ttft_sum"], context
    assert sum(metrics.latencies) == snap["latency_sum"], context


class TestSingleModelGoldens:
    @pytest.mark.parametrize("name", sorted(SINGLE_SCENARIOS))
    def test_scenario_matches_pre_refactor_metrics(self, golden, name):
        _simulator, metrics = single_run(name)
        assert_matches(golden["single"][name], metrics, name)


def _deployments():
    return [
        ModelDeployment(name="a", costs=ServingCostModel("Llama2-7B"),
                        cold_start_latency=3.0),
        ModelDeployment(name="b", costs=ServingCostModel("Qwen1.5-4B"),
                        cold_start_latency=1.5, hot_spares=1),
    ]


def _multi_workloads(rps):
    return {"a": ShareGPTWorkload(rps=rps, duration=60.0, seed=11),
            "b": ShareGPTWorkload(rps=rps, duration=60.0, seed=12)}


class TestMultiModelGoldens:
    @pytest.mark.parametrize("name", sorted(MULTI_SCENARIOS))
    def test_scenario_matches_pre_refactor_metrics(self, golden, name):
        cluster = MultiModelCluster(_deployments(), num_gpus=4)
        per_model = cluster.run(
            tag_workloads(_multi_workloads(MULTI_SCENARIOS[name])),
            horizon=60.0)
        for model in ("a", "b"):
            assert_matches(golden["multi"][name][model], per_model[model],
                           f"{name}/{model}")
        assert_matches(golden["multi"][name]["__aggregate__"],
                       cluster.aggregate(), f"{name}/aggregate")


class TestFlatPlacementGoldens:
    """``placement="flat"`` is the pre-placement simulator, bit for bit.

    The placement layer added node identity, per-node caches, and
    fetch-stage rewriting; the flat policy must disable all of it.  Every
    golden snapshot — recorded long before the layer existed — has to
    reproduce exactly under ``placement="flat"``, and the run must record
    zero placement traffic.
    """

    @pytest.mark.parametrize("name", sorted(SINGLE_SCENARIOS))
    def test_single_model_flat_matches_goldens(self, golden, name):
        _simulator, metrics = single_run(name, placement="flat")
        assert_matches(golden["single"][name], metrics, name)
        assert_no_placement_traffic(metrics, name)

    @pytest.mark.parametrize("name", sorted(MULTI_SCENARIOS))
    def test_multi_model_flat_matches_goldens(self, golden, name):
        cluster = MultiModelCluster(_deployments(), num_gpus=4,
                                    placement="flat")
        per_model = cluster.run(
            tag_workloads(_multi_workloads(MULTI_SCENARIOS[name])),
            horizon=60.0)
        for model in ("a", "b"):
            assert_matches(golden["multi"][name][model], per_model[model],
                           f"{name}/{model}")
        aggregate = cluster.aggregate()
        assert_matches(golden["multi"][name]["__aggregate__"],
                       aggregate, f"{name}/aggregate")
        assert_no_placement_traffic(aggregate, name)


def assert_no_placement_traffic(metrics, context):
    """Flat runs must leave every placement counter untouched."""
    assert metrics.tier_hits == {}, context
    assert metrics.tier_misses == 0, context
    assert metrics.tier_evictions == {}, context
    assert metrics.tier_promotions == {}, context
    assert metrics.fetch_seconds_saved == 0.0, context
