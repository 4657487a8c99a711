"""Serving cost model and instance batching tests."""

import dataclasses

import pytest

from repro.errors import SchedulingError
from repro.models.zoo import get_model_config
from repro.serverless.costs import ServingCostModel
from repro.serverless.cluster import ModelDeployment
from repro.serverless.instance import Instance
from repro.serverless.workload import Request
from repro.simgpu.costmodel import CostModel


@pytest.fixture
def costs():
    return ServingCostModel("Llama2-7B")


class TestServingCosts:
    def test_graphs_accelerate_decode(self, costs):
        eager = costs.decode_step_time(1, 200, use_graphs=False)
        graph = costs.decode_step_time(1, 200, use_graphs=True)
        assert graph < eager

    def test_figure3_speedup_band(self):
        """Figure 3: up to ~2.4x end-to-end acceleration; Qwen1.5-4B peaks.

        The quantity is one unloaded request: prefill of 161 prompt
        tokens, then 337 decode steps over a growing context."""
        def latency(c, use_graphs):
            return c.prefill_time(161) + sum(
                c.decode_step_time(1, 161 + step, use_graphs)
                for step in range(337))

        speedups = {}
        for name in ("Llama2-7B", "Llama2-13B", "Qwen1.5-4B", "Yi-6B"):
            c = ServingCostModel(name)
            speedups[name] = latency(c, False) / latency(c, True)
        assert all(1.2 < s < 2.6 for s in speedups.values())
        assert max(speedups, key=speedups.get) == "Qwen1.5-4B"
        assert speedups["Qwen1.5-4B"] == pytest.approx(2.4, abs=0.3)

    def test_decode_grows_with_context(self, costs):
        short = costs.decode_step_time(8, 100, use_graphs=True)
        long = costs.decode_step_time(8, 4000, use_graphs=True)
        assert long > short

    def test_prefill_grows_with_prompt(self, costs):
        assert costs.prefill_time(1000) > costs.prefill_time(10)

    def test_padded_batch(self, costs):
        assert costs.padded_batch(3) == 4
        assert costs.padded_batch(8) == 8
        assert costs.padded_batch(1000) == 256

    def test_padded_batch_off_the_table(self, costs):
        """Sizes at and above the largest capture size pad to it."""
        assert costs.padded_batch(256) == 256
        assert costs.padded_batch(257) == 256

    def test_is_immutable(self, costs):
        """The derived tables are built once: the inputs cannot change."""
        with pytest.raises(dataclasses.FrozenInstanceError):
            costs.config = get_model_config("Qwen1.5-4B")
        with pytest.raises(dataclasses.FrozenInstanceError):
            costs.cost_model = CostModel()


def request(rid, arrival=0.0, prompt=100, output=3):
    return Request(request_id=rid, arrival_time=arrival,
                   prompt_tokens=prompt, output_tokens=output)


class TestInstance:
    def make(self, costs, cold=1.0, max_running=2):
        config = ModelDeployment(name="m", costs=costs,
                                 cold_start_latency=cold,
                                 max_running=max_running)
        return Instance(config, launched_at=0.0, cold_start_latency=cold)

    def test_ready_after_cold_start(self, costs):
        instance = self.make(costs, cold=2.5)
        assert instance.ready_at == 2.5

    def test_step_without_work_rejected(self, costs):
        with pytest.raises(SchedulingError):
            self.make(costs).run_step(0.0)

    def test_admission_respects_batch_cap(self, costs):
        instance = self.make(costs, max_running=2)
        for rid in range(4):
            instance.enqueue(request(rid))
        result = instance.run_step(10.0)
        assert len(result.ttfts) == 2          # only two admitted
        assert len(instance.waiting) == 2

    def test_ttft_includes_queueing(self, costs):
        instance = self.make(costs)
        instance.enqueue(request(0, arrival=1.0))
        result = instance.run_step(5.0)
        (_req, ttft), = result.ttfts
        assert ttft > 4.0        # waited from t=1 to t=5 plus prefill

    def test_request_completes_after_output_tokens(self, costs):
        instance = self.make(costs)
        instance.enqueue(request(0, output=3))
        now = 0.0
        completions = []
        for _ in range(5):
            if not instance.has_work:
                break
            result = instance.run_step(now)
            now += result.duration
            completions.extend(result.completed)
        assert len(completions) == 1
        # 3 steps: prefill(+1 token) then two decode iterations.
        assert completions[0].request.request_id == 0
        assert not instance.has_work

    def test_completed_ttft_is_first_token_not_total(self, costs):
        instance = self.make(costs)
        instance.enqueue(request(0, output=5))
        now = 0.0
        done = []
        while instance.has_work:
            result = instance.run_step(now)
            now += result.duration
            done.extend(result.completed)
        assert done[0].ttft < done[0].latency

    def test_retired_instance_rejects_work(self, costs):
        instance = self.make(costs)
        instance.retired = True
        with pytest.raises(SchedulingError):
            instance.enqueue(request(0))
