"""Mechanical checkpoint/restore baseline tests (§9)."""

import numpy as np
import pytest

from repro.core.checkpoint import checkpoint_engine, restore_engine
from repro.core.validation import make_input_ids
from repro.engine import LLMEngine, Strategy
from repro.errors import RestorationError
from repro.simgpu.costmodel import CostModel, GpuProperties
from repro.simgpu.process import ExecutionMode

from tests.conftest import tiny_cost_model


@pytest.fixture(scope="module")
def source_engine():
    engine = LLMEngine("Tiny-2L", Strategy.VLLM, seed=777,
                       mode=ExecutionMode.COMPUTE,
                       cost_model=tiny_cost_model())
    engine.cold_start()
    return engine


@pytest.fixture(scope="module")
def checkpoint(source_engine):
    return checkpoint_engine(source_engine)


class TestCheckpoint:
    def test_requires_cold_started_engine(self):
        engine = LLMEngine("Tiny-2L", Strategy.VLLM, seed=1,
                           cost_model=tiny_cost_model())
        with pytest.raises(RestorationError):
            checkpoint_engine(engine)

    def test_snapshot_covers_all_live_bytes(self, source_engine, checkpoint):
        assert checkpoint.device_bytes == \
            source_engine.process.allocator.bytes_in_use
        assert checkpoint.total_bytes > checkpoint.device_bytes  # + host image

    def test_graphs_snapshotted_verbatim(self, source_engine, checkpoint):
        graphs = {g.exec_meta.batch_size: g for g in checkpoint.graphs}
        for batch, graph in source_engine.capture_artifacts.graphs.items():
            snapshot = graphs[batch].columns
            for column, ours in zip(graph.columns, snapshot):
                assert np.array_equal(column, ours)
                assert column is not ours
            assert graphs[batch].exec_meta == graph.exec_meta
            assert graphs[batch].exec_meta is not graph.exec_meta


class TestRestore:
    def test_restore_recreates_identical_address_space(self, checkpoint):
        engine, _latency = restore_engine(checkpoint,
                                          cost_model=tiny_cost_model())
        assert engine.kv_region.buffer.address == checkpoint.kv_address
        assert engine.capture_artifacts.graph_input.address == \
            checkpoint.graph_input_address

    def test_restore_latency_pays_snapshot_transfer(self, checkpoint):
        cm = tiny_cost_model()
        _engine, latency = restore_engine(checkpoint, cost_model=cm)
        floor = checkpoint.total_bytes / cm.gpu.h2d_bandwidth
        assert latency >= floor

    def test_restored_engine_serves_identically(self, source_engine,
                                                checkpoint):
        restored, _latency = restore_engine(checkpoint,
                                            cost_model=tiny_cost_model(),
                                            mode=ExecutionMode.COMPUTE)
        ids = make_input_ids(seed=6)
        outputs = []
        for engine in (source_engine, restored):
            ctx = engine.serving_context()
            ctx.input_buffer.write(ids)
            engine.reset_kv_state()
            engine.decode_step(2)
            outputs.append(ctx.output_buffer.read().copy())
        np.testing.assert_array_equal(outputs[0], outputs[1])

    def test_cross_gpu_restore_rejected(self, checkpoint):
        other = CostModel(gpu=GpuProperties(name="Other-GPU",
                                            total_memory_bytes=1 << 30))
        with pytest.raises(RestorationError):
            restore_engine(checkpoint, cost_model=other)

    def test_checkpoint_dwarfs_medusa_artifact(self, checkpoint,
                                               tiny2l_artifact):
        """§9: Medusa 'is more lightweight' — here measured, not modeled."""
        artifact, _ = tiny2l_artifact
        assert checkpoint.total_bytes > 20 * len(artifact.to_json())

    def test_medusa_restore_faster_than_checkpoint(self, checkpoint,
                                                   tiny2l_artifact):
        from repro.core.online import medusa_cold_start
        artifact, _ = tiny2l_artifact
        cm = tiny_cost_model()
        _ckpt_engine, ckpt_latency = restore_engine(checkpoint, cost_model=cm)
        _med_engine, report = medusa_cold_start("Tiny-2L", artifact, seed=778,
                                                cost_model=cm)
        medusa_restore_cost = (report.stage_durations["kv_init"]
                               + report.stage_durations["medusa_warmup"]
                               + report.stage_durations["medusa_restore"])
        # The checkpoint baseline restores weights too, so compare against
        # Medusa's restore costs plus its weight-loading stage.
        medusa_total = medusa_restore_cost + \
            report.stage_durations["load_weights"]
        assert isinstance(ckpt_latency, float)
        assert medusa_total < 10 * ckpt_latency   # same order; both tiny here