"""KV cache region sizing tests."""

import dataclasses

import pytest

from repro.core.checkpoint import checkpoint_engine, restore_engine
from repro.core.online import medusa_cold_start
from repro.engine import LLMEngine, Strategy
from repro.engine.kvcache import KVCacheConfig, KVCacheRegion
from repro.errors import InvalidValueError
from repro.models.zoo import get_model_config

from tests.conftest import replaced, tiny_cost_model

QWEN = get_model_config("Qwen1.5-4B")


class TestKVCacheConfig:
    def test_block_bytes_formula(self):
        config = KVCacheConfig(block_size_tokens=16, dtype_bytes=2)
        expected = 2 * 16 * QWEN.hidden_size * 2 * QWEN.num_layers
        assert config.block_bytes(QWEN) == expected

    def test_num_blocks_floor_division(self):
        config = KVCacheConfig()
        block = config.block_bytes(QWEN)
        assert config.num_blocks_for(QWEN, 10 * block + 5) == 10

    def test_too_small_region_rejected(self):
        config = KVCacheConfig()
        with pytest.raises(InvalidValueError):
            config.num_blocks_for(QWEN, 16)

    def test_exactly_one_block_fits(self):
        config = KVCacheConfig()
        block = config.block_bytes(QWEN)
        assert config.num_blocks_for(QWEN, block) == 1
        with pytest.raises(InvalidValueError,
                           match="cannot hold one KV block"):
            config.num_blocks_for(QWEN, block - 1)

    def test_block_count_capped_at_max_blocks(self):
        config = KVCacheConfig(max_blocks=32)
        block = config.block_bytes(QWEN)
        assert config.num_blocks_for(QWEN, 1000 * block) == 32


class TestKVCacheRegion:
    def test_requires_positive_blocks(self):
        """A region of no blocks is refused wherever it is built; the
        vLLM profile builds it from the engine's own KV buffer."""
        engine = LLMEngine("Tiny-2L", Strategy.VLLM, seed=3,
                           cost_model=tiny_cost_model())
        engine.cold_start()
        region = engine.kv_region
        for num_blocks in (0, -1):
            with pytest.raises(InvalidValueError,
                               match=f"need at least one KV block, "
                                     f"got {num_blocks}"):
                KVCacheRegion(buffer=region.buffer, num_blocks=num_blocks,
                              block_bytes=region.block_bytes,
                              layer_stride=region.layer_stride)

    def test_no_blocks_refused_before_the_malloc(self):
        """``max_blocks=0`` sizes a region of no blocks: the engine refuses
        it by its block count, allocating nothing."""
        engine = LLMEngine("Tiny-2L", Strategy.VLLM, seed=3,
                           cost_model=tiny_cost_model())
        engine.kv_config = KVCacheConfig(max_blocks=0)
        allocations = engine.process.allocator.num_allocations
        with pytest.raises(InvalidValueError,
                           match="^need at least one KV block, got 0$"):
            engine.adopt_kv_bytes(10 * engine.kv_config.block_bytes(
                engine.config))
        assert engine.kv_region is None
        assert engine.process.allocator.num_allocations == allocations
        with pytest.raises(InvalidValueError,
                           match="^need at least one KV block, got 0$"):
            engine.cold_start()

    def test_vllm_region_is_whole_blocks_of_its_buffer(self):
        engine = LLMEngine("Tiny-2L", Strategy.VLLM, seed=3,
                           cost_model=tiny_cost_model())
        engine.cold_start()
        region = engine.kv_region
        assert region.total_bytes == region.num_blocks * region.block_bytes
        assert region.total_bytes == region.buffer.size
        assert region.num_blocks == \
            engine.kv_config.num_blocks_for(engine.config, engine.kv_bytes)

    def test_vllm_profile_too_small_for_a_block_refused(self):
        """The vLLM path sizes the region from profiled bytes: fewer than
        one block's worth is refused before anything is allocated."""
        engine = LLMEngine("Tiny-2L", Strategy.VLLM, seed=3,
                           cost_model=tiny_cost_model())
        live = len(engine.process.allocator.live_buffers)
        block = engine.kv_config.block_bytes(engine.config)
        with pytest.raises(InvalidValueError,
                           match="cannot hold one KV block"):
            engine.adopt_kv_bytes(block - 1)
        assert engine.kv_region is None
        assert len(engine.process.allocator.live_buffers) == live

    @pytest.mark.parametrize("num_blocks", [0, -1])
    def test_medusa_restore_refuses_no_blocks(self, tiny2l_artifact,
                                              num_blocks):
        """A Medusa restore takes its block count from the artifact."""
        artifact, _ = tiny2l_artifact
        with pytest.raises(InvalidValueError,
                           match=f"need at least one KV block, "
                                 f"got {num_blocks}"):
            medusa_cold_start("Tiny-2L",
                              replaced(artifact, kv_num_blocks=num_blocks),
                              cost_model=tiny_cost_model())

    @pytest.mark.parametrize("num_blocks", [0, -1])
    def test_checkpoint_restore_refuses_no_blocks(self, num_blocks):
        """A checkpoint restore takes its block count from the snapshot."""
        engine = LLMEngine("Tiny-2L", Strategy.VLLM, seed=3,
                           cost_model=tiny_cost_model())
        engine.cold_start()
        checkpoint = dataclasses.replace(checkpoint_engine(engine),
                                         kv_num_blocks=num_blocks)
        with pytest.raises(InvalidValueError,
                           match=f"need at least one KV block, "
                                 f"got {num_blocks}"):
            restore_engine(checkpoint, cost_model=tiny_cost_model())

    def test_every_path_builds_the_profiled_block_count(self,
                                                        tiny2l_artifact):
        """§6: the block count is invariant per <GPU, model>, so the
        Medusa and checkpoint restores rebuild the vLLM profile's."""
        artifact, _ = tiny2l_artifact
        engine = LLMEngine("Tiny-2L", Strategy.VLLM, seed=3,
                           cost_model=tiny_cost_model())
        engine.cold_start()
        restored, _ = restore_engine(checkpoint_engine(engine),
                                     cost_model=tiny_cost_model())
        medusa, _ = medusa_cold_start("Tiny-2L", artifact,
                                      cost_model=tiny_cost_model())
        blocks = engine.kv_region.num_blocks
        assert restored.kv_region.num_blocks == blocks
        assert medusa.kv_region.num_blocks == blocks
        assert artifact.kv_num_blocks == blocks
