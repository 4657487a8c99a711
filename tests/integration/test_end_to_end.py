"""End-to-end integration: offline -> artifact file -> online -> serving."""

import numpy as np
import pytest

from repro.core.binfmt import save_binary
from repro.core.chunks import open_binary
from repro.core.online import medusa_cold_start
from repro.core.validation import make_input_ids, validate_restoration
from repro.engine import LLMEngine, Strategy
from repro.models.zoo import get_model_config
from repro.simgpu.process import ExecutionMode

from tests.conftest import tiny_cost_model


class TestArtifactFileRoundTrip:
    def test_restore_from_saved_file(self, tiny2l_artifact, tmp_path):
        """The artifact survives disk persistence (the SSD path)."""
        artifact, _ = tiny2l_artifact
        path = tmp_path / "tiny2l.medusa"
        save_binary(artifact, path)
        loaded = open_binary(path)
        report = validate_restoration("Tiny-2L", loaded, batches=[1, 4],
                                      seed=404, cost_model=tiny_cost_model())
        assert report.passed


class TestFullServingFlow:
    def test_medusa_engine_serves_requests(self, tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        engine, report = medusa_cold_start(
            "Tiny-2L", artifact, seed=505, mode=ExecutionMode.COMPUTE,
            cost_model=tiny_cost_model())
        assert engine.prefill(12, batch_size=2) > 0
        assert engine.decode_step(2) > 0

    def test_vanilla_and_medusa_serve_identically(self, tiny2l_artifact):
        """Same checkpoint, same inputs: both engines' graph-served decode
        steps produce identical outputs."""
        artifact, _ = tiny2l_artifact
        vanilla = LLMEngine("Tiny-2L", Strategy.VLLM, seed=606,
                            mode=ExecutionMode.COMPUTE,
                            cost_model=tiny_cost_model())
        vanilla.cold_start()
        medusa, _ = medusa_cold_start("Tiny-2L", artifact, seed=607,
                                      mode=ExecutionMode.COMPUTE,
                                      cost_model=tiny_cost_model())
        ids = make_input_ids(seed=9)
        outputs = []
        for engine in (vanilla, medusa):
            ctx = engine.serving_context()
            ctx.input_buffer.write(ids)
            engine.reset_kv_state()
            for _ in range(3):          # multi-step decode, stateful KV
                engine.decode_step(4)
            outputs.append(ctx.output_buffer.read().copy())
        np.testing.assert_array_equal(outputs[0], outputs[1])

    def test_medusa_graphs_replay_many_times(self, tiny2l_artifact):
        """Restored graphs are reusable, not single-shot."""
        artifact, _ = tiny2l_artifact
        engine, _ = medusa_cold_start("Tiny-2L", artifact, seed=608,
                                      mode=ExecutionMode.COMPUTE,
                                      cost_model=tiny_cost_model())
        ctx = engine.serving_context()
        ctx.input_buffer.write(make_input_ids(seed=1))
        for _ in range(10):
            engine.decode_step(1)
        assert np.all(ctx.output_buffer.read().sum(axis=-1) == 1.0)


class TestTiming:
    def test_medusa_restores_kv_cheaper_than_profiling(self, tiny4l_artifact):
        artifact, _ = tiny4l_artifact
        vanilla = LLMEngine("Tiny-4L", Strategy.VLLM, seed=700,
                            cost_model=tiny_cost_model())
        vanilla_report = vanilla.cold_start()
        _, medusa_report = medusa_cold_start(
            "Tiny-4L", artifact, seed=701, cost_model=tiny_cost_model())
        assert medusa_report.stage_durations["kv_init"] < \
            vanilla_report.stage_durations["kv_init"]

    def test_medusa_skips_most_capture_work_at_paper_scale(self):
        """At real-model scale (where fixed restore costs amortize over
        16k nodes), Medusa's warm-up+restore undercuts vanilla capture —
        the paper's 0.90 s -> 0.57 s claim (§7.3)."""
        from repro.core.offline import run_offline
        vanilla = LLMEngine("Qwen1.5-4B", Strategy.VLLM, seed=720)
        vanilla_report = vanilla.cold_start()
        artifact, _ = run_offline("Qwen1.5-4B", seed=721)
        _, medusa_report = medusa_cold_start("Qwen1.5-4B", artifact, seed=722)
        medusa_capture_cost = (
            medusa_report.stage_durations["medusa_warmup"]
            + medusa_report.stage_durations["medusa_restore"]
            + medusa_report.stage_durations["kv_init"])
        vanilla_cost = (vanilla_report.stage_durations["capture"]
                        + vanilla_report.stage_durations["kv_init"])
        assert medusa_capture_cost < 0.55 * vanilla_cost

    def test_loading_ordering_across_strategies(self, tiny4l_artifact):
        artifact, _ = tiny4l_artifact
        cm = tiny_cost_model()
        vllm = LLMEngine("Tiny-4L", Strategy.VLLM, seed=710,
                         cost_model=cm).cold_start()
        vasync = LLMEngine("Tiny-4L", Strategy.VLLM_ASYNC, seed=711,
                           cost_model=cm).cold_start()
        nograph = LLMEngine("Tiny-4L", Strategy.NO_CUDA_GRAPH, seed=712,
                            cost_model=cm).cold_start()
        _, medusa = medusa_cold_start("Tiny-4L", artifact, seed=713,
                                      cost_model=cm)
        assert medusa.loading_time < vasync.loading_time < vllm.loading_time
        assert medusa.loading_time < nograph.loading_time


class TestCrossModel:
    @pytest.mark.parametrize("model", ["Tiny-2L", "Tiny-4L"])
    def test_both_tiny_models_validate(self, model, tiny2l_artifact,
                                       tiny4l_artifact):
        artifact, _ = tiny2l_artifact if model == "Tiny-2L" \
            else tiny4l_artifact
        config = get_model_config(model)
        report = validate_restoration(model, artifact,
                                      batches=[min(config.capture_batch_sizes),
                                               max(config.capture_batch_sizes)],
                                      seed=800, cost_model=tiny_cost_model())
        assert report.passed
