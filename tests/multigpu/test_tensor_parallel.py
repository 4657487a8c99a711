"""Tensor-parallel (multi-GPU) tests — the §8 future-work extension."""

import pytest

from repro.engine import Strategy
from repro.errors import InvalidValueError, RestorationError
from repro.multigpu import (
    TensorParallelEngine,
    TensorParallelMedusa,
    rank_config,
)
from repro.multigpu.tp import DIST_INIT_TIME, allreduce_time
from repro.models.zoo import get_model_config
from repro.simgpu.costmodel import H100_80GB, CostModel
from repro.simgpu.process import ExecutionMode

from tests.conftest import tiny_cost_model


class TestRankConfig:
    def test_shards_weight_bytes(self):
        config = get_model_config("Llama2-13B")
        shard = rank_config(config, 4, 0)
        assert shard.param_bytes == config.param_bytes // 4
        assert shard.num_layers == config.num_layers
        assert shard.total_graph_nodes == config.total_graph_nodes

    def test_tp1_is_identity(self):
        config = get_model_config("Tiny-2L")
        assert rank_config(config, 1, 0) is config

    def test_rank_names_distinct(self):
        config = get_model_config("Tiny-2L")
        names = {rank_config(config, 2, r).name for r in range(2)}
        assert len(names) == 2

    def test_validation(self):
        config = get_model_config("Tiny-2L")
        with pytest.raises(InvalidValueError):
            rank_config(config, 0, 0)
        with pytest.raises(InvalidValueError):
            rank_config(config, 2, 2)


class TestAllreduceModel:
    def test_tp1_costs_nothing(self):
        assert allreduce_time(4096, 8, 1) == 0.0

    def test_grows_with_batch_and_degree(self):
        small = allreduce_time(4096, 1, 2)
        bigger_batch = allreduce_time(4096, 64, 2)
        more_ranks = allreduce_time(4096, 1, 8)
        assert bigger_batch > small
        assert more_ranks > small


class TestTensorParallelEngine:
    def test_tp_cold_start_has_barrier_and_dist_init(self):
        tp = TensorParallelEngine("Tiny-4L", tp_degree=2, seed=3,
                                  cost_model=tiny_cost_model())
        report = tp.cold_start()
        slowest = max(r.loading_time for r in report.rank_reports)
        assert report.loading_time == pytest.approx(
            slowest + DIST_INIT_TIME)
        assert len(report.rank_reports) == 2

    def test_tp_shards_cut_weight_load_time(self):
        single = TensorParallelEngine("Qwen1.5-7B", 1, seed=4).cold_start()
        sharded = TensorParallelEngine("Qwen1.5-7B", 4, seed=4).cold_start()
        single_weights = single.rank_reports[0].stage_durations["load_weights"]
        shard_weights = sharded.rank_reports[0].stage_durations["load_weights"]
        assert shard_weights == pytest.approx(single_weights / 4, rel=0.01)

    def test_decode_step_includes_allreduce(self):
        tp = TensorParallelEngine("Tiny-2L", 2, seed=5,
                                  cost_model=tiny_cost_model())
        tp.cold_start()
        single = TensorParallelEngine("Tiny-2L", 1, seed=5,
                                      cost_model=tiny_cost_model())
        single.cold_start()
        assert tp.decode_step(4) > 0
        # TP pays the collective; with equal shards it cannot be cheaper
        # than a single small-rank step by more than the allreduce.
        assert tp.decode_step(4) >= max(
            e.decode_step(4) for e in tp.engines)


class TestTensorParallelMedusa:
    @pytest.fixture(scope="class")
    def tp_artifacts(self):
        medusa = TensorParallelMedusa("Tiny-2L", tp_degree=2, seed=6,
                                      mode=ExecutionMode.COMPUTE,
                                      cost_model=tiny_cost_model())
        artifacts, reports = medusa.run_offline()
        return medusa, artifacts, reports

    def test_per_rank_artifacts(self, tp_artifacts):
        _medusa, artifacts, reports = tp_artifacts
        assert len(artifacts) == 2
        assert artifacts[0].model_name != artifacts[1].model_name
        assert artifacts[0].total_nodes == artifacts[1].total_nodes

    def test_rank_consistency_check_catches_divergence(self, tp_artifacts,
                                                       tmp_path):
        from repro.core.chunks import open_binary
        from tests.conftest import resaved
        medusa, artifacts, _ = tp_artifacts

        def drop_last_node(members, meta):
            """Graph 1 without its last node (its edges kept)."""
            offsets = members["g1_param_offsets"]
            for name in ("kernel", "batchdim", "param_offsets"):
                members[f"g1_{name}"] = members[f"g1_{name}"][:-1]
            for name in ("sizes", "kinds", "values", "byte_offsets"):
                members[f"g1_param_{name}"] = \
                    members[f"g1_param_{name}"][:offsets[-2]]
            meta["graph_meta"]["1"][2] -= 1
        broken = [artifacts[0], open_binary(resaved(
            artifacts[1], tmp_path / "rank1.medusa", drop_last_node))]
        with pytest.raises(RestorationError, match="nodes != rank 0's"):
            medusa._verify_rank_consistency(broken)

    def test_online_restores_every_rank(self, tp_artifacts):
        medusa, artifacts, _ = tp_artifacts
        engine, report = medusa.cold_start(artifacts, seed=7)
        assert len(report.rank_reports) == 2
        for rank_engine in engine.engines:
            assert rank_engine.capture_artifacts is not None
            assert set(rank_engine.capture_artifacts.execs) == \
                set(get_model_config("Tiny-2L").capture_batch_sizes)

    def test_medusa_tp_beats_vanilla_tp(self, tp_artifacts):
        medusa, artifacts, _ = tp_artifacts
        _engine, medusa_report = medusa.cold_start(artifacts, seed=8)
        vanilla = TensorParallelEngine(
            "Tiny-2L", 2, Strategy.VLLM, seed=8,
            mode=ExecutionMode.COMPUTE,
            cost_model=tiny_cost_model()).cold_start()
        medusa_kv = max(r.stage_durations["kv_init"]
                        for r in medusa_report.rank_reports)
        vanilla_kv = max(r.stage_durations["kv_init"]
                         for r in vanilla.rank_reports)
        assert medusa_kv < vanilla_kv

    def test_swapped_rank_artifacts_rejected(self, tp_artifacts):
        """Each rank's artifact is keyed by its rank's model (§3)."""
        medusa, artifacts, _ = tp_artifacts
        with pytest.raises(RestorationError, match="artifact is for"):
            medusa.cold_start(artifacts[::-1])

    def test_rank_artifacts_of_another_gpu_rejected(self):
        h100 = TensorParallelMedusa("Tiny-2L", tp_degree=2, seed=9,
                                    cost_model=CostModel(gpu=H100_80GB))
        artifacts, _ = h100.run_offline()
        a100 = TensorParallelMedusa("Tiny-2L", tp_degree=2, seed=9)
        with pytest.raises(RestorationError, match="materialized on"):
            a100.cold_start(artifacts)

    def test_wrong_artifact_count_rejected(self, tp_artifacts):
        medusa, artifacts, _ = tp_artifacts
        with pytest.raises(RestorationError):
            medusa.cold_start(artifacts[:1])
