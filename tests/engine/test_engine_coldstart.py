"""Cold-start tests on the tiny models (full engine, COMPUTE mode)."""

import numpy as np
import pytest

from repro.core.online import medusa_cold_start
from repro.engine import LLMEngine, Strategy
from repro.errors import EngineError
from repro.models.zoo import get_model_config
from repro.simgpu.process import ExecutionMode

from tests.conftest import tiny_cost_model


def make_engine(strategy=Strategy.VLLM, seed=5,
                mode=ExecutionMode.COMPUTE, model="Tiny-2L"):
    return LLMEngine(model, strategy, seed=seed, mode=mode,
                     cost_model=tiny_cost_model())


class TestVanillaColdStart:
    def test_all_stages_present_and_positive(self):
        report = make_engine().cold_start()
        for stage in ("structure_init", "load_weights", "load_tokenizer",
                      "kv_init", "capture"):
            assert report.stage_durations[stage] > 0, stage

    def test_loading_time_is_sum_for_sync(self):
        report = make_engine().cold_start()
        assert report.loading_time == \
            pytest.approx(sum(report.stage_durations.values()))

    def test_cold_start_adds_runtime_init_and_first_token(self):
        report = make_engine().cold_start()
        assert report.cold_start_time > report.loading_time

    def test_graphs_captured_for_all_batch_sizes(self):
        engine = make_engine()
        engine.cold_start()
        config = get_model_config("Tiny-2L")
        assert set(engine.capture_artifacts.graphs) == \
            set(config.capture_batch_sizes)
        for batch, graph in engine.capture_artifacts.graphs.items():
            assert graph.num_nodes == config.nodes_for_batch(batch)

    def test_kv_blocks_deterministic_across_seeds(self):
        """§6: the profiled free memory is invariant per <GPU, model>."""
        a = make_engine(seed=1)
        b = make_engine(seed=999)
        a.cold_start()
        b.cold_start()
        assert a.kv_bytes == b.kv_bytes
        assert a.kv_region.num_blocks == b.kv_region.num_blocks

    def test_double_cold_start_rejected(self):
        engine = make_engine()
        engine.cold_start()
        with pytest.raises(EngineError):
            engine.cold_start()

    def test_medusa_without_restorer_rejected(self):
        engine = make_engine(strategy=Strategy.MEDUSA)
        with pytest.raises(EngineError):
            engine.cold_start()


class TestTokenizerStage:
    """The tokenizer stage is a clock advance by the tokenizer's load
    time; it keeps its place in every strategy's timeline."""

    @pytest.mark.parametrize("strategy", [
        Strategy.VLLM, Strategy.VLLM_ASYNC, Strategy.NO_CUDA_GRAPH,
        Strategy.DEFERRED], ids=lambda strategy: strategy.name)
    def test_stage_lasts_the_tokenizer_load_time(self, strategy):
        engine = make_engine(strategy, mode=ExecutionMode.TIMING)
        report = engine.cold_start()
        expected = engine.cost_model.tokenizer_load_time(
            engine.config.vocab_size)
        assert report.stage_durations["load_tokenizer"] == \
            pytest.approx(expected, rel=1e-12)

    def test_medusa_restore_loads_the_tokenizer_too(self, tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        engine, report = medusa_cold_start("Tiny-2L", artifact,
                                           cost_model=tiny_cost_model())
        expected = engine.cost_model.tokenizer_load_time(
            engine.config.vocab_size)
        assert report.stage_durations["load_tokenizer"] == \
            pytest.approx(expected, rel=1e-12)


class TestStrategyComparison:
    def test_async_beats_sync(self):
        sync = make_engine(Strategy.VLLM, seed=7).cold_start()
        async_ = make_engine(Strategy.VLLM_ASYNC, seed=7).cold_start()
        assert async_.loading_time < sync.loading_time

    def test_no_graph_skips_capture(self):
        report = make_engine(Strategy.NO_CUDA_GRAPH).cold_start()
        assert "capture" not in report.stage_durations
        assert report.loading_time < \
            make_engine(Strategy.VLLM, seed=6).cold_start().loading_time


class TestServing:
    def test_graphs_accelerate_decode(self):
        engine = make_engine(seed=11)
        engine.cold_start()
        with_graphs = engine.decode_step(1, use_graphs=True)
        without = engine.decode_step(1, use_graphs=False)
        assert with_graphs < without

    def test_no_graph_strategy_serves_eagerly(self):
        engine = make_engine(Strategy.NO_CUDA_GRAPH, seed=12)
        engine.cold_start()
        assert engine.prefill(8) > 0
        assert engine.decode_step(1) > 0

    def test_padded_batch_rounds_up(self):
        engine = make_engine()
        assert engine.padded_batch(3) == 4
        assert engine.padded_batch(1) == 1
        assert engine.padded_batch(99) == 4   # beyond largest: clamps to max

    def test_serving_before_cold_start_rejected(self):
        engine = make_engine()
        with pytest.raises(EngineError):
            engine.serving_context()

    def test_decode_replay_executes_compute(self):
        engine = make_engine(seed=13)
        engine.cold_start()
        ctx = engine.serving_context()
        ctx.input_buffer.write(np.arange(16, dtype=float).reshape(4, 4))
        engine.reset_kv_state()
        engine.decode_step(1)
        out = ctx.output_buffer.read()
        assert np.all(out.sum(axis=-1) == 1.0)   # sampled one-hot rows
