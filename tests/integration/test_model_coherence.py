"""Coherence between the live engine and the analytic serving model.

The serverless simulator uses :class:`ServingCostModel` instead of live
engines; these tests pin the two against each other so the Figure 10/11
results are measurements of the same system the engine implements.
"""

import pytest

from repro.engine import LLMEngine, Strategy
from repro.serverless import ServingCostModel


@pytest.fixture(scope="module")
def live_engine():
    engine = LLMEngine("Llama2-7B", Strategy.VLLM, seed=37)
    engine.cold_start()
    return engine


@pytest.fixture(scope="module")
def analytic():
    return ServingCostModel("Llama2-7B")


class TestDecodeCoherence:
    @pytest.mark.parametrize("batch", [1, 4, 16, 64])
    def test_graph_decode_matches_at_zero_context(self, live_engine,
                                                  analytic, batch):
        """With no KV traffic, the analytic decode step must equal the
        engine's graph replay time exactly."""
        measured = live_engine.decode_step(batch, use_graphs=True)
        predicted = analytic.decode_step_time(
            batch, avg_context=0.0, use_graphs=True)
        assert measured == pytest.approx(predicted, rel=1e-9)

    def test_kv_context_only_adds_time(self, analytic):
        base = analytic.decode_step_time(8, 0.0, use_graphs=True)
        with_context = analytic.decode_step_time(8, 2000.0, use_graphs=True)
        assert with_context >= base

    @pytest.mark.parametrize("batch", [1, 8])
    def test_eager_decode_matches_engine(self, live_engine, analytic, batch):
        measured = live_engine.decode_step(batch, use_graphs=False)
        predicted = analytic.decode_step_time(
            batch, avg_context=0.0, use_graphs=False)
        assert measured == pytest.approx(predicted, rel=1e-9)

    def test_prefill_matches_engine(self, live_engine, analytic):
        measured = live_engine.prefill(161)
        predicted = analytic.prefill_time(161)
        assert measured == pytest.approx(predicted, rel=1e-9)


class TestHeadlineClaimRobustness:
    def test_medusa_beats_vllm_p99_across_seeds(self):
        """Figure 10's conclusion must not hinge on one arrival seed."""
        from repro.serverless import (
            ClusterSimulator,
            ModelDeployment,
            ShareGPTWorkload,
        )
        costs = ServingCostModel("Llama2-7B")
        for seed in (1, 2, 3):
            workload = ShareGPTWorkload(rps=10, duration=180, seed=seed)
            requests = workload.generate()
            p99 = {}
            for label, cold in (("vllm", 3.73), ("medusa", 2.21)):
                simulator = ClusterSimulator(ModelDeployment(
                    name="Llama2-7B", costs=costs, cold_start_latency=cold), 4)
                p99[label] = simulator.run(requests, horizon=180).p99_ttft
            assert p99["medusa"] < p99["vllm"], f"seed {seed}"