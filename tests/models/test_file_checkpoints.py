"""File-backed checkpoint tests (the artifact's --save_tensor step)."""

import numpy as np
import pytest

from repro.engine import LLMEngine, Strategy
from repro.errors import ArtifactError
from repro.models.weights import CheckpointStore, FileCheckpointStore
from repro.models.zoo import get_model_config

from tests.conftest import tiny_cost_model

TINY = get_model_config("Tiny-2L")


class TestFileCheckpointStore:
    def test_save_and_stream_back(self, tmp_path):
        store = FileCheckpointStore(tmp_path)
        written = store.save_checkpoint(TINY)
        assert written > 0
        keys = [key for key, _payload in store.iter_payloads(TINY)]
        generated = CheckpointStore()
        assert keys == [k for k, _p in generated.iter_payloads(TINY)]

    def test_file_payloads_match_generated(self, tmp_path):
        store = FileCheckpointStore(tmp_path)
        store.save_checkpoint(TINY)
        generated = dict(CheckpointStore().iter_payloads(TINY))
        for key, payload in store.iter_payloads(TINY):
            np.testing.assert_array_equal(payload, generated[key])

    def test_missing_checkpoint_raises(self, tmp_path):
        store = FileCheckpointStore(tmp_path)
        with pytest.raises(ArtifactError):
            list(store.iter_payloads(TINY))

    def test_seed_mismatch_detected(self, tmp_path):
        import dataclasses
        store = FileCheckpointStore(tmp_path)
        store.save_checkpoint(TINY)
        changed = dataclasses.replace(TINY, checkpoint_seed=999)
        with pytest.raises(ArtifactError):
            list(store.iter_payloads(changed))

    def test_sharding_splits_large_models(self, tmp_path):
        config = get_model_config("Tiny-4L")
        store = FileCheckpointStore(tmp_path)
        store.save_checkpoint(config)
        manifest_dir = store._model_dir(config)
        shards = list(manifest_dir.glob("shard-*.npz"))
        expected = -(-config.weight_buffer_count() // store.SHARD_SIZE)
        assert len(shards) == expected


class TestEngineWithFileCheckpoints:
    def test_cold_start_from_files(self, tmp_path):
        store = FileCheckpointStore(tmp_path)
        store.save_checkpoint(TINY)
        engine = LLMEngine("Tiny-2L", Strategy.VLLM, seed=3,
                           cost_model=tiny_cost_model(), checkpoints=store)
        report = engine.cold_start()
        assert report.loading_time > 0

    def test_outputs_identical_to_generated_checkpoints(self, tmp_path):
        from repro.core.validation import make_input_ids
        from repro.simgpu.process import ExecutionMode
        store = FileCheckpointStore(tmp_path)
        store.save_checkpoint(TINY)
        outputs = []
        for checkpoints in (store, CheckpointStore()):
            engine = LLMEngine("Tiny-2L", Strategy.VLLM, seed=4,
                               mode=ExecutionMode.COMPUTE,
                               cost_model=tiny_cost_model(),
                               checkpoints=checkpoints)
            engine.cold_start()
            ctx = engine.serving_context()
            ctx.input_buffer.write(make_input_ids(seed=2))
            engine.reset_kv_state()
            engine.decode_step(1)
            outputs.append(ctx.output_buffer.read().copy())
        np.testing.assert_array_equal(outputs[0], outputs[1])
