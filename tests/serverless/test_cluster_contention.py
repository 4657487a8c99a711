"""Multi-model pool contention: the eviction/exhaustion paths."""

import pytest

from repro.errors import SchedulingError
from repro.serverless.cluster import (
    ModelDeployment,
    MultiModelCluster,
    TaggedRequest,
)
from repro.serverless.costs import ServingCostModel
from repro.serverless.workload import Request


def deployment(name, cold=0.5, **kwargs):
    return ModelDeployment(name=name, costs=ServingCostModel("Llama2-7B"),
                           cold_start_latency=cold, **kwargs)


def request(rid, arrival, model):
    return TaggedRequest(model, Request(request_id=rid, arrival_time=arrival,
                                        prompt_tokens=16, output_tokens=2))


class TestPoolContention:
    def test_idle_instance_of_other_model_evicted(self):
        """When the pool is full of idle foreign instances, the router
        evicts one to host the starved model."""
        cluster = MultiModelCluster([deployment("a"), deployment("b")],
                                    num_gpus=1, keep_alive=10_000.0)
        # Model a's burst finishes early; b arrives much later while a's
        # instance idles on the only GPU.
        requests = [request(0, 0.0, "a"), request(1, 60.0, "b")]
        metrics = cluster.run(requests, horizon=120.0)
        assert metrics["a"].completed == 1
        assert metrics["b"].completed == 1
        evicted = [inst for inst in cluster.instances["a"] if inst.retired]
        assert evicted

    def test_exhausted_pool_with_busy_foreigners_raises(self):
        """If hot spares of other models hold every GPU, the starved model
        can never launch: the run reports the capacity wall loudly."""
        cluster = MultiModelCluster(
            [deployment("a", hot_spares=1), deployment("b")],
            num_gpus=1, keep_alive=10_000.0)
        # b has no instance; a's hot spare owns the only GPU and hot spares
        # are never evicted.
        with pytest.raises(SchedulingError):
            cluster.run([request(0, 1.0, "b")], horizon=10.0)

    def test_starved_model_waits_for_a_freed_gpu(self):
        """Regression: three models on two GPUs, one request each.

        ``a`` and ``b`` take both GPUs with cold starts that already hold
        queued work, so ``c`` finds no idle instance and no cold start to
        preempt.  It used to raise; it now waits, and launches on the GPU
        ``a`` frees when its request completes.
        """
        cluster = MultiModelCluster(
            [deployment("a"), deployment("b"), deployment("c")],
            num_gpus=2)
        metrics = cluster.run([request(0, 0.0, "a"), request(1, 0.1, "b"),
                               request(2, 0.2, "c")], horizon=30.0)
        assert all(len(metrics[m].ttfts) == 1 for m in "abc")
        # a's request arrived at t = 0, so its latency is when a idled.
        a_idle_at = metrics["a"].latencies[0]
        (c_instance,) = cluster.instances["c"]
        assert c_instance.launched_at == a_idle_at
        assert metrics["c"].ttfts[0] > a_idle_at + 0.5 - 0.2
        (a_instance,) = cluster.instances["a"]
        assert a_instance.retired_at == a_idle_at

    def test_unknown_model_raises(self):
        cluster = MultiModelCluster([deployment("a")], num_gpus=1)
        with pytest.raises(SchedulingError, match="no deployment"):
            cluster.run([request(0, 0.0, "zzz")], horizon=10.0)
