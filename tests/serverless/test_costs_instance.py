"""Serving cost model and instance batching tests."""

import dataclasses

import numpy as np
import pytest

from repro.errors import SchedulingError
from repro.models.zoo import get_model_config
from repro.serverless import costs as costs_module
from repro.serverless import (
    MultiModelCluster,
    ShareGPTWorkload,
    tag_workloads,
)
from repro.serverless.costs import ServingCostModel
from repro.serverless.cluster import ModelDeployment
from repro.serverless.instance import Instance
from repro.serverless.workload import Request
from repro.simgpu.costmodel import CostModel
from tests.serverless.test_stage_coldstart import (
    pipelined_profile,
    scalar_timeline_profile,
)
from tests.serverless.test_step_oracle import COSTS as STEP_ORACLE_COSTS


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


def _hexes(values):
    return [value.hex() for value in values]


def _pool_outputs(costs, trace):
    """Summaries, TTFTs and latencies of one staged two-model pool run,
    as hex strings, per model and for the aggregate."""
    deployments = [
        ModelDeployment(name=name, costs=costs[name],
                        cold_start_latency=profile.serving_ready_time,
                        profile=profile)
        for name, profile in (("a", pipelined_profile()),
                              ("b", scalar_timeline_profile()))]
    pool = MultiModelCluster(deployments, num_gpus=3, placement="locality",
                             autoscale="cold-cost", slo_ttft=1.0)
    per_model = pool.run(trace, horizon=120.0)
    runs = dict(per_model, aggregate=pool.aggregate())
    return {name: ({key: value.hex() for key, value in
                    metrics.summary().items()},
                   _hexes(metrics.ttfts), _hexes(metrics.latencies))
            for name, metrics in runs.items()}


class TestDecodeTables:
    """``decode_run`` slices one memoized table per (batch, graph mode)."""

    def test_zero_steps_is_empty_on_a_warm_table(self, costs):
        costs.decode_run(7, 0, 1000, True)
        assert len(costs.decode_tables.tables[(7, True)]) == 7000
        for context_sum in (0, 1, 3500, 6999, 7000, 10**6):
            run = costs.decode_run(7, context_sum, 0, True)
            assert run.dtype == np.float64 and run.shape == (0,)

    def test_runs_are_read_only(self, costs):
        run = costs.decode_run(3, 300, 20, False)
        assert not run.flags.writeable
        with pytest.raises(ValueError):
            run[0] = 0.0

    def test_tables_grow_geometrically_and_price_each_entry_once(self,
                                                                 costs):
        tables = costs.decode_tables
        costs.decode_run(4, 100, 10, True)
        assert (tables.built, tables.priced, tables.entries) == (1, 140, 140)
        costs.decode_run(4, 120, 5, True)           # inside the table
        assert tables.priced == 140
        costs.decode_run(4, 140, 1, True)           # doubles it
        assert len(tables.tables[(4, True)]) == 280
        costs.decode_run(4, 0, 200, True)           # past the double
        assert len(tables.tables[(4, True)]) == 800
        assert (tables.built, tables.priced, tables.entries) == (1, 800, 800)
        fresh = ServingCostModel("Llama2-7B")
        fresh.decode_run(4, 0, 200, True)
        assert fresh.decode_tables.tables[(4, True)].tobytes() == \
            tables.tables[(4, True)].tobytes()

    def test_budget_evicts_the_oldest_tables(self, costs, monkeypatch):
        monkeypatch.setattr(costs_module, "DECODE_TABLE_BUDGET", 1000)
        tables = costs.decode_tables
        first = costs.decode_run(1, 0, 600, True)
        costs.decode_run(2, 0, 150, True)           # 300 entries
        costs.decode_run(3, 0, 100, False)          # 300: evicts batch 1
        assert list(tables.tables) == [(2, True), (3, False)]
        assert tables.entries == 600
        again = costs.decode_run(1, 0, 600, True)   # built again
        assert list(tables.tables) == [(3, False), (1, True)]
        assert (tables.built, tables.entries) == (4, 900)
        assert again.tobytes() == first.tobytes()
        # Larger than the whole budget: sliced once and not kept.
        whole = costs.decode_run(5, 0, 300, True)
        assert (5, True) not in tables.tables and tables.entries == 900
        assert whole.tobytes() == ServingCostModel("Llama2-7B").decode_run(
            5, 0, 300, True).tobytes()

    def test_budget_holds_after_the_oracles_largest_runs(self):
        """The step oracle's largest examples, on its shared cost
        models: batch 600 from a context sum of 10**6 for 2,000 steps
        needs a 2.2M-entry table, more than the budget."""
        for costs in STEP_ORACLE_COSTS:
            for use_graphs in (True, False):
                costs.decode_run(256, 256 * 10, 2000, use_graphs)
                costs.decode_run(600, 10**6, 2000, use_graphs)
                costs.decode_run(600, 1, 40, use_graphs)
            tables = costs.decode_tables
            assert tables.entries == sum(
                len(table) for table in tables.tables.values())
            assert tables.entries <= costs_module.DECODE_TABLE_BUDGET

    def test_contended_run_ahead_leaves_the_table_untouched(self, costs):
        config = ModelDeployment(name="m", costs=costs,
                                 cold_start_latency=0.0, max_running=4)
        instance = Instance(config, launched_at=0.0, cold_start_latency=0.0)
        instance.enqueue(request(0, prompt=100, output=50))
        instance.enqueue(request(1, prompt=200, output=80))
        now = instance.run_step(0.0).duration
        silent = instance.run_step(now)
        assert not (silent.ttfts or silent.completed)
        start = now + silent.duration
        context_sum = instance._context_sum
        costs.decode_run(2, 0, 100 + context_sum // 2, True)
        table = costs.decode_tables.tables[(2, True)]
        before = table.tobytes()
        instance.restore_tail_until = start + 10 * silent.duration
        end = instance.run_ahead(start)
        assert end is not None and instance._steps == 49
        assert 1 < instance.contended_steps < 47
        assert costs.decode_tables.tables[(2, True)] is table
        assert table.tobytes() == before
        assert _hexes(table.tolist()) == [
            costs.decode_step_time(2, context / 2, True).hex()
            for context in range(len(table))]

    def test_pools_sharing_a_warm_cost_model_match_fresh_ones(self):
        traces = [tag_workloads({
            name: ShareGPTWorkload(rps=2.0, duration=60.0, seed=seed + i,
                                   shape="spike_train")
            for i, name in enumerate("ab")}) for seed in (5, 40)]

        def fresh():
            return {"a": ServingCostModel("Llama2-7B"),
                    "b": ServingCostModel("Qwen1.5-0.5B")}

        expected = [_pool_outputs(fresh(), trace) for trace in traces]
        shared = fresh()
        for _ in range(2):
            for trace, outputs in zip(traces, expected):
                assert _pool_outputs(shared, trace) == outputs
        assert shared["a"].decode_tables.built > 0
