"""Cost-model formula tests, anchored on the paper's measured numbers."""

import pytest

from repro.models.zoo import get_model_config
from repro.simgpu.costmodel import CostModel, GpuProperties

QWEN4B = get_model_config("Qwen1.5-4B")


@pytest.fixture
def cm():
    return CostModel()


class TestCalibration:
    """The Qwen1.5-4B anchor (Figure 8a: 0.85/0.39/0.21/0.50 s)."""

    def test_structure_init_matches_paper(self, cm):
        assert cm.structure_init_time(QWEN4B.param_bytes) == \
            pytest.approx(0.85, rel=0.02)

    def test_weight_load_matches_paper(self, cm):
        # The engine's weight stage is per-tensor H2D copies summing to this.
        assert QWEN4B.param_bytes / cm.gpu.h2d_bandwidth == \
            pytest.approx(0.39, rel=0.02)

    def test_tokenizer_matches_paper(self, cm):
        assert cm.tokenizer_load_time(QWEN4B.vocab_size) == \
            pytest.approx(0.21, rel=0.05)

    def test_kv_profile_near_half_second(self, cm):
        # Excludes library init / launch overhead, which the engine adds.
        profile = cm.forward_gpu_time(QWEN4B.param_bytes,
                                      cm.kv_profile_tokens)
        assert 0.35 < profile < 0.50


class TestFormulas:
    def test_forward_gpu_time_is_memory_bound_at_small_batch(self, cm):
        t1 = cm.forward_gpu_time(QWEN4B.param_bytes, 1)
        t2 = cm.forward_gpu_time(QWEN4B.param_bytes, 2)
        assert t1 == t2  # both memory bound: weight read dominates

    def test_forward_gpu_time_becomes_compute_bound(self, cm):
        small = cm.forward_gpu_time(QWEN4B.param_bytes, 1)
        large = cm.forward_gpu_time(QWEN4B.param_bytes, 4096)
        assert large > small

    def test_graph_beats_eager_per_step(self, cm):
        kernels = QWEN4B.nodes_for_batch(1)
        eager = cm.eager_step_time(QWEN4B.param_bytes, 1, kernels)
        graph = cm.graph_step_time(QWEN4B.param_bytes, 1)
        assert graph < eager
        # Figure 3: up to ~2.4x acceleration.
        assert 1.5 < eager / graph < 3.0

    def test_capture_forward_scales_with_nodes(self, cm):
        assert cm.capture_forward_time(200) == \
            pytest.approx(2 * cm.capture_forward_time(100))

    def test_costs_are_positive(self, cm):
        assert cm.instantiate_time(100) > 0
        assert cm.structure_init_time(0) > 0


class TestGpuProperties:
    def test_default_is_a100_40gb(self):
        gpu = GpuProperties()
        assert gpu.total_memory_bytes == 40 * 1024**3
        assert "A100" in gpu.name

    def test_custom_memory(self):
        gpu = GpuProperties(total_memory_bytes=1024)
        assert gpu.total_memory_bytes == 1024
