"""Simulated model weights.

A model's checkpoint is identified by its ``checkpoint_seed``: weight
payload matrices are generated deterministically from (seed, buffer key)
by :func:`iter_payloads` (once per process and model), so every process
that "loads" a model gets bit-identical weights, and no checkpoint file
exists on disk — the invariant that lets Medusa skip re-saving
model-parameter buffer contents (§4.3: "the model parameters are
already prepared before capturing").

Declared byte sizes split the paper's parameter size across the model's
weight buffers, so device-memory accounting happens at real-model scale.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.models.config import WEIGHTED_LAYER_KERNELS, ModelConfig
from repro.simgpu.kernels import PAYLOAD_DIM
from repro.utils.rng import SeedSequence


def weight_buffer_keys(config: ModelConfig) -> List[str]:
    """Deterministic allocation order of every weight buffer.

    Layers are initialized sequentially (paper §3: "the control flow would
    also allocate each layer's data buffers in order"), then the
    prologue/epilogue weights.
    """
    template = config.kernel_template()
    keys: List[str] = []
    for layer in range(config.num_layers):
        for kernel_key in template.layer_kernels:
            if kernel_key in WEIGHTED_LAYER_KERNELS:
                keys.append(f"layer{layer:03d}.{kernel_key}.weight")
    keys.append("embed_tokens.weight")
    keys.append("final_layernorm.weight")
    keys.append("lm_head.weight")
    return keys


def declared_sizes(config: ModelConfig) -> Dict[str, int]:
    """Split ``param_bytes`` across the weight buffers (first gets remainder)."""
    keys = weight_buffer_keys(config)
    share = config.param_bytes // len(keys)
    sizes = {key: share for key in keys}
    sizes[keys[0]] += config.param_bytes - share * len(keys)
    return sizes


def _payloads(config: ModelConfig, keys: List[str]) -> np.ndarray:
    """The weight matrices of ``keys``, stacked, each drawn from its own
    generator and scaled to a spectral norm of at most 1.

    The norms come from one batched SVD; each equals the per-matrix
    ``np.linalg.norm(matrix, 2)`` bit for bit.
    """
    seeds = SeedSequence(config.checkpoint_seed)
    matrices = np.stack([
        seeds.generator("weights", key).normal(
            scale=0.5, size=(PAYLOAD_DIM, PAYLOAD_DIM))
        for key in keys])
    # Keep norms bounded so deep stacks stay numerically tame.
    norms = np.linalg.svd(matrices, compute_uv=False).max(-1)
    return matrices / np.maximum(norms, 1.0)[:, None, None]


#: ``config -> (keys, payloads)``: each model's weights, generated once
#: per process.  The stacked payloads are read-only.
_PAYLOADS: Dict[ModelConfig, Tuple[Tuple[str, ...], np.ndarray]] = {}


def iter_payloads(config: ModelConfig) -> Iterator[Tuple[str, np.ndarray]]:
    """Every weight buffer's ``(key, payload)``, in allocation order.

    The payloads are generated on the first call for a config and kept
    (the frozen config is the key), so later weight loads and offline
    captures skip the generators and the SVD.  They are read-only views:
    ``Buffer.write`` copies each one into its buffer, so no two engines
    share a payload.
    """
    memo = _PAYLOADS.get(config)
    if memo is None:
        keys = weight_buffer_keys(config)
        payloads = _payloads(config, keys)
        payloads.setflags(write=False)
        memo = _PAYLOADS[config] = (tuple(keys), payloads)
    yield from zip(*memo)
