"""KV cache: one continuous device region divided into fixed-size blocks.

Mirrors vLLM's PagedAttention memory management (§6): the KV cache is one
continuous GPU buffer sized from the *residual free memory after a profiling
forwarding*, internally divided into fixed-size blocks.  The block count is
the quantity Medusa materializes — it is invariant per <GPU type, model
type> because the profiling peak is deterministic.  No block is handed to
a request: serving after a cold start is modelled by the pool's
instances (:mod:`repro.serverless.instance`), without per-block
accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InvalidValueError
from repro.models.config import ModelConfig
from repro.simgpu.kernels import PAYLOAD_DIM
from repro.simgpu.memory import Buffer
from repro.simgpu.process import CudaProcess


@dataclass(frozen=True)
class KVCacheConfig:
    """Sizing policy, matching vLLM's defaults."""

    block_size_tokens: int = 16
    gpu_memory_utilization: float = 0.90
    dtype_bytes: int = 2          # fp16 K and V entries
    max_blocks: int = 1 << 16     # engine-level cap (ample for every model)

    def block_bytes(self, model: ModelConfig) -> int:
        """Bytes of one KV block: K+V, block tokens, hidden, all layers."""
        return (2 * self.block_size_tokens * model.hidden_size
                * self.dtype_bytes * model.num_layers)

    def num_blocks_for(self, model: ModelConfig, kv_bytes: int) -> int:
        block = self.block_bytes(model)
        if kv_bytes < block:
            raise InvalidValueError(
                f"{model.name}: {kv_bytes} bytes cannot hold one KV block "
                f"of {block} bytes")
        return min(self.max_blocks, kv_bytes // block)


def check_num_blocks(num_blocks: int) -> None:
    """Refuse a region of fewer than one block."""
    if num_blocks < 1:
        raise InvalidValueError(
            f"need at least one KV block, got {num_blocks}")


@dataclass
class KVCacheRegion:
    """The allocated continuous KV region inside one process."""

    buffer: Buffer
    num_blocks: int
    block_bytes: int
    layer_stride: int

    def __post_init__(self) -> None:
        # Every path builds one: the vLLM profile, a Medusa restore (whose
        # block count comes from the artifact) and a checkpoint restore.
        check_num_blocks(self.num_blocks)

    @property
    def total_bytes(self) -> int:
        return self.num_blocks * self.block_bytes


def allocate_kv_region(process: CudaProcess, model: ModelConfig,
                       kv_config: KVCacheConfig, kv_bytes: int) -> KVCacheRegion:
    """Allocate the continuous KV cache buffer from ``kv_bytes`` of free
    memory; a block count below one (``max_blocks`` 0) is refused before
    the malloc."""
    num_blocks = kv_config.num_blocks_for(model, kv_bytes)
    check_num_blocks(num_blocks)
    total = num_blocks * kv_config.block_bytes(model)
    buffer = process.malloc(
        total, tag="kv",
        payload=np.zeros((PAYLOAD_DIM, PAYLOAD_DIM)))
    return KVCacheRegion(
        buffer=buffer,
        num_blocks=num_blocks,
        block_bytes=kv_config.block_bytes(model),
        layer_stride=max(1, total // max(1, model.num_layers)),
    )
