"""Weight payload tests."""

import numpy as np
import pytest

from repro.models.kernels_catalog import build_catalog
from repro.models.model import Model
from repro.models.weights import (
    _payloads,
    declared_sizes,
    iter_payloads,
    weight_buffer_keys,
)
from repro.models.zoo import PAPER_MODELS, TINY_MODELS, get_model_config
from repro.simgpu.process import CudaProcess, ExecutionMode
from repro.utils.rng import SeedSequence

TINY = get_model_config("Tiny-2L")
QWEN = get_model_config("Qwen1.5-4B")


class TestWeightKeys:
    def test_layer_order_is_sequential(self):
        keys = weight_buffer_keys(TINY)
        layer_keys = [k for k in keys if k.startswith("layer")]
        layers = [int(k[5:8]) for k in layer_keys]
        assert layers == sorted(layers)

    def test_epilogue_weights_present(self):
        keys = weight_buffer_keys(TINY)
        assert "embed_tokens.weight" in keys
        assert "lm_head.weight" in keys
        assert "final_layernorm.weight" in keys

    def test_count_matches_config(self):
        assert len(weight_buffer_keys(QWEN)) == QWEN.weight_buffer_count()

    def test_declared_sizes_sum_to_param_bytes(self):
        sizes = declared_sizes(QWEN)
        assert sum(sizes.values()) == QWEN.param_bytes

    def test_declared_sizes_positive(self):
        assert all(size > 0 for size in declared_sizes(TINY).values())


class TestIterPayloads:
    def test_payloads_deterministic(self):
        np.testing.assert_equal(dict(iter_payloads(TINY)),
                                dict(iter_payloads(TINY)))

    def test_payloads_differ_per_key(self):
        keys = weight_buffer_keys(TINY)
        payloads = dict(iter_payloads(TINY))
        assert not np.array_equal(payloads[keys[0]], payloads[keys[1]])

    def test_payloads_differ_per_model(self):
        key = "embed_tokens.weight"
        assert not np.array_equal(dict(iter_payloads(TINY))[key],
                                  dict(iter_payloads(QWEN))[key])

    @pytest.mark.parametrize("config", PAPER_MODELS + TINY_MODELS,
                             ids=lambda config: config.name)
    def test_batched_norm_matches_per_matrix_norm(self, config):
        """The batched SVD scales every payload exactly as a per-matrix
        ``np.linalg.norm(matrix, 2)`` does, bit for bit."""
        keys = weight_buffer_keys(config)
        payloads = list(iter_payloads(config))
        assert [key for key, _ in payloads] == keys
        for key, payload in payloads:
            rng = SeedSequence(config.checkpoint_seed).generator("weights",
                                                                 key)
            matrix = rng.normal(scale=0.5, size=payload.shape)
            expected = matrix / max(1.0, np.linalg.norm(matrix, 2))
            assert payload.tobytes() == expected.tobytes(), key

    def test_spectral_norm_bounded(self):
        for key, payload in iter_payloads(TINY):
            assert np.linalg.norm(payload, 2) <= 1.0 + 1e-9


class TestPayloadMemo:
    """Each model's payloads are generated once per process and shared
    read-only; every engine's weight buffers hold copies."""

    def test_memo_arrays_are_read_only(self):
        for _key, payload in iter_payloads(TINY):
            assert not payload.flags.writeable
            with pytest.raises(ValueError):
                payload[0, 0] = 1.0

    def test_memo_is_generated_once(self):
        first = dict(iter_payloads(QWEN))
        again = dict(iter_payloads(QWEN))
        assert all(again[key] is not first[key]
                   and np.shares_memory(again[key], first[key])
                   for key in first)

    @pytest.mark.parametrize("config", PAPER_MODELS + TINY_MODELS,
                             ids=lambda config: config.name)
    def test_memo_bytes_equal_a_fresh_build(self, config):
        keys = weight_buffer_keys(config)
        fresh = _payloads(config, keys)
        memo = list(iter_payloads(config))
        assert [key for key, _ in memo] == keys
        for (key, payload), expected in zip(memo, fresh):
            assert payload.tobytes() == expected.tobytes(), key

    def test_a_buffer_write_stays_in_its_engine(self):
        """Weight loads copy: writing into one engine's weight buffer
        changes neither another engine's buffer nor the memo."""
        def loaded(seed):
            process = CudaProcess(seed=seed, catalog=build_catalog(TINY),
                                  mode=ExecutionMode.COMPUTE)
            model = Model(TINY, process)
            model.initialize_structure()
            model.load_weights()
            return model
        first, second = loaded(3), loaded(4)
        key = weight_buffer_keys(TINY)[0]
        memo = dict(iter_payloads(TINY))[key]
        before = memo.tobytes()
        buffer = first.weight_buffers[key]
        assert buffer.payload.flags.writeable
        assert not np.shares_memory(buffer.payload, memo)
        buffer.payload[0, 0] += 1.0
        buffer.write(np.full_like(memo, 7.0))
        assert memo.tobytes() == before
        assert second.weight_buffers[key].read().tobytes() == before
        assert dict(iter_payloads(TINY))[key].tobytes() == before
