"""Medusa + Optimus composition tests (§9: 'orthogonal to those works')."""

import pytest

from repro.core.online import medusa_cold_start
from repro.core.optimus import (
    OptimusTransformer,
    medusa_plus_optimus_cold_start,
)
from repro.core.validation import make_input_ids
from repro.engine import LLMEngine, Strategy
from repro.errors import RestorationError
from repro.simgpu.costmodel import H100_80GB, CostModel
from repro.simgpu.process import ExecutionMode

from tests.conftest import tiny_cost_model


class TestComposition:
    def test_transform_cuts_structure_init(self, tiny4l_artifact):
        artifact, _ = tiny4l_artifact
        cm = tiny_cost_model()
        _medusa_engine, medusa = medusa_cold_start(
            "Tiny-4L", artifact, seed=21, cost_model=cm)
        _combo_engine, combo = medusa_plus_optimus_cold_start(
            "Tiny-4L", artifact, seed=22, cost_model=cm)
        assert combo.stage_durations["structure_init"] < \
            medusa.stage_durations["structure_init"]
        assert combo.loading_time < medusa.loading_time

    def test_composition_stacks_with_paper_scale_numbers(self):
        from repro.core.offline import run_offline
        artifact, _ = run_offline("Qwen1.5-4B", seed=23)
        vllm = LLMEngine("Qwen1.5-4B", Strategy.VLLM, seed=24).cold_start()
        _m, medusa = medusa_cold_start("Qwen1.5-4B", artifact, seed=25)
        _c, combo = medusa_plus_optimus_cold_start("Qwen1.5-4B", artifact,
                                                   seed=26)
        medusa_reduction = 1 - medusa.loading_time / vllm.loading_time
        combo_reduction = 1 - combo.loading_time / vllm.loading_time
        assert combo_reduction > medusa_reduction + 0.15   # stacked wins

    def test_transform_preserves_restoration_correctness(self,
                                                         tiny4l_artifact):
        """The transform must keep the allocation prefix deterministic —
        restored graphs still replay bit-exactly."""
        import numpy as np
        artifact, _ = tiny4l_artifact
        engine, _report = medusa_plus_optimus_cold_start(
            "Tiny-4L", artifact, seed=27, mode=ExecutionMode.COMPUTE,
            cost_model=tiny_cost_model())
        ctx = engine.serving_context()
        ctx.input_buffer.write(make_input_ids(seed=3))
        engine.reset_kv_state()
        snapshot = engine.process.snapshot_payloads()
        engine.model.forward(2, 2, ctx)
        expected = ctx.output_buffer.read().copy()
        engine.process.restore_payloads(snapshot)
        engine.capture_artifacts.execs[2].replay()
        np.testing.assert_array_equal(ctx.output_buffer.read(), expected)

    def test_transform_time_scales_with_buffer_count(self):
        from repro.models.zoo import get_model_config
        transformer = OptimusTransformer()
        small = LLMEngine("Tiny-2L", Strategy.VLLM, seed=1,
                          cost_model=tiny_cost_model())
        large = LLMEngine("Tiny-4L", Strategy.VLLM, seed=1,
                          cost_model=tiny_cost_model())
        assert transformer.transform_time(large) > \
            transformer.transform_time(small)


class TestArtifactKey:
    """The composed cold start checks the artifact's <GPU type, model
    type> key (§3) as a Medusa cold start does."""

    def test_refuses_an_artifact_of_another_gpu(self):
        from repro.core.offline import run_offline
        artifact, _ = run_offline("Tiny-2L", seed=28,
                                  cost_model=CostModel(gpu=H100_80GB))
        for cold_start in (medusa_cold_start,
                           medusa_plus_optimus_cold_start):
            with pytest.raises(RestorationError, match="materialized on"):
                cold_start("Tiny-2L", artifact)

    def test_refuses_an_artifact_of_another_model(self, tiny4l_artifact):
        artifact, _ = tiny4l_artifact
        with pytest.raises(RestorationError, match="artifact is for"):
            medusa_plus_optimus_cold_start("Tiny-2L", artifact,
                                           cost_model=tiny_cost_model())
