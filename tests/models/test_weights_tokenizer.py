"""Weight payload tests."""

import numpy as np
import pytest

from repro.models.weights import (
    declared_sizes,
    iter_payloads,
    weight_buffer_keys,
)
from repro.models.zoo import PAPER_MODELS, TINY_MODELS, get_model_config
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
