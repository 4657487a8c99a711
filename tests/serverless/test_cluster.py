"""Multi-model cluster tests (§2.4: model diversity vs hot spares)."""

import pytest

from repro.errors import InvalidValueError
from repro.serverless.cluster import (
    MAX_GPUS,
    ModelDeployment,
    check_pool,
    MultiModelCluster,
    TaggedRequest,
    tag_workloads,
)
from repro.serverless.costs import ServingCostModel
from repro.serverless.workload import Request, ShareGPTWorkload


def deployment(name, model="Llama2-7B", cold=3.0, **kwargs):
    return ModelDeployment(name=name, costs=ServingCostModel(model),
                           cold_start_latency=cold, **kwargs)


def workloads(names, rps=1.0, duration=60.0, seed=11):
    return {name: ShareGPTWorkload(rps=rps, duration=duration,
                                   seed=seed + i)
            for i, name in enumerate(names)}


class TestTagging:
    def test_merged_stream_is_time_ordered(self):
        tagged = tag_workloads(workloads(["a", "b"]))
        times = [t.request.arrival_time for t in tagged]
        assert times == sorted(times)
        assert {t.model for t in tagged} == {"a", "b"}


class TestClusterValidation:
    def test_duplicate_deployments_rejected(self):
        with pytest.raises(InvalidValueError):
            MultiModelCluster([deployment("m"), deployment("m")], num_gpus=4)

    def test_pool_size_is_capped(self):
        assert MAX_GPUS == 4096
        check_pool(MAX_GPUS, 0.0)
        with pytest.raises(InvalidValueError, match="at most 4096"):
            check_pool(MAX_GPUS + 1, 0.0)

    def test_spares_beyond_pool_rejected(self):
        """§2.4: over-provisioning every model type hits the GPU wall."""
        with pytest.raises(InvalidValueError):
            MultiModelCluster(
                [deployment("a", hot_spares=3),
                 deployment("b", hot_spares=3)],
                num_gpus=4)


class TestMultiModelServing:
    def test_both_models_served_with_shared_pool(self):
        cluster = MultiModelCluster(
            [deployment("a"), deployment("b", model="Qwen1.5-4B")],
            num_gpus=4)
        metrics = cluster.run(tag_workloads(workloads(["a", "b"])),
                              horizon=60.0)
        for name in ("a", "b"):
            assert metrics[name].arrived > 0
            assert len(metrics[name].ttfts) == metrics[name].arrived

    def test_instances_are_model_exclusive(self):
        cluster = MultiModelCluster(
            [deployment("a"), deployment("b")], num_gpus=4)
        cluster.run(tag_workloads(workloads(["a", "b"])), horizon=60.0)
        for name, pool in cluster.instances.items():
            assert all(inst.model_name == name for inst in pool)

    def test_gpu_bound_shared_across_models(self):
        cluster = MultiModelCluster(
            [deployment("a", cold=1.0), deployment("b", cold=1.0)],
            num_gpus=2)
        cluster.run(tag_workloads(workloads(["a", "b"], rps=4.0)),
                    horizon=60.0)
        # At no point did live instances exceed the pool: since we never
        # track history, assert the end state and the launch discipline.
        assert cluster.gpus_in_use <= 2

    def test_per_model_hot_spares_cut_per_model_tails(self):
        base = MultiModelCluster(
            [deployment("a", cold=4.0), deployment("b", cold=4.0)],
            num_gpus=4)
        base_metrics = base.run(tag_workloads(workloads(["a", "b"])),
                                horizon=90.0)
        spared = MultiModelCluster(
            [deployment("a", cold=4.0, hot_spares=1),
             deployment("b", cold=4.0, hot_spares=1)],
            num_gpus=4)
        spared_metrics = spared.run(tag_workloads(workloads(["a", "b"])),
                                    horizon=90.0)
        for name in ("a", "b"):
            assert spared_metrics[name].p99_ttft <= \
                base_metrics[name].p99_ttft

    def test_spare_waste_scales_with_model_count(self):
        """§2.4's core point: warm capacity must be paid *per model*."""
        def wasted(names, spares):
            cluster = MultiModelCluster(
                [deployment(n, cold=3.0, hot_spares=spares) for n in names],
                num_gpus=4)
            cluster.run(tag_workloads(workloads(names, rps=0.2)),
                        horizon=90.0)
            return cluster.aggregate().wasted_gpu_seconds
        assert wasted(["a", "b"], 1) > 1.5 * wasted(["a"], 1)

    def test_aggregate_sums_models(self):
        cluster = MultiModelCluster(
            [deployment("a"), deployment("b")], num_gpus=4)
        metrics = cluster.run(tag_workloads(workloads(["a", "b"])),
                              horizon=60.0)
        aggregate = cluster.aggregate()
        assert aggregate.arrived == sum(m.arrived for m in metrics.values())
        assert len(aggregate.ttfts) == aggregate.arrived
