"""Simulated model checkpoints.

A checkpoint is identified by the model's ``checkpoint_seed``: weight payload
matrices are generated deterministically from (seed, buffer key), so every
process that "loads" a model gets bit-identical weights — the invariant that
lets Medusa skip re-saving model-parameter buffer contents (§4.3: "the model
parameters are already prepared before capturing").

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


class CheckpointStore:
    """Deterministic weight payload source for all models."""

    def payload(self, config: ModelConfig, key: str) -> np.ndarray:
        return _payloads(config, [key])[0]

    def iter_payloads(self, config: ModelConfig) -> Iterator[Tuple[str, np.ndarray]]:
        keys = weight_buffer_keys(config)
        yield from zip(keys, _payloads(config, keys))


class FileCheckpointStore(CheckpointStore):
    """Checkpoints persisted as sharded files on disk.

    Mirrors the original artifact's ``--save_tensor`` step, which writes
    model parameters to the SSDs before any serving: ``save_checkpoint``
    shards the weight payloads into ``.npz`` files plus a manifest;
    ``iter_payloads`` then streams them back from disk in allocation order.
    """

    SHARD_SIZE = 64   # weight tensors per .npz shard

    def __init__(self, root):
        import pathlib
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _model_dir(self, config: ModelConfig):
        import re
        return self.root / re.sub(r"[^A-Za-z0-9._-]+", "_", config.name)

    def save_checkpoint(self, config: ModelConfig) -> int:
        """Write the model's weights to disk; returns total payload bytes."""
        import json
        model_dir = self._model_dir(config)
        model_dir.mkdir(parents=True, exist_ok=True)
        keys = weight_buffer_keys(config)
        shards = []
        total = 0
        for shard_index in range(0, len(keys), self.SHARD_SIZE):
            shard_keys = keys[shard_index:shard_index + self.SHARD_SIZE]
            shard_name = f"shard-{shard_index // self.SHARD_SIZE:04d}.npz"
            arrays = {key: self.payload(config, key) for key in shard_keys}
            np.savez(model_dir / shard_name, **arrays)
            total += sum(a.nbytes for a in arrays.values())
            shards.append({"file": shard_name, "keys": shard_keys})
        manifest = {
            "model": config.name,
            "checkpoint_seed": config.checkpoint_seed,
            "param_bytes": config.param_bytes,
            "shards": shards,
        }
        (model_dir / "manifest.json").write_text(json.dumps(manifest))
        return total

    def iter_payloads(self, config: ModelConfig
                      ) -> Iterator[Tuple[str, np.ndarray]]:
        """Stream weights back from the saved shards, allocation order."""
        import json
        from repro.errors import ArtifactError
        manifest_path = self._model_dir(config) / "manifest.json"
        if not manifest_path.exists():
            raise ArtifactError(
                f"no checkpoint for {config.name} under {self.root}; run "
                f"save_checkpoint first (the artifact's --save_tensor step)")
        manifest = json.loads(manifest_path.read_text())
        if manifest["checkpoint_seed"] != config.checkpoint_seed:
            raise ArtifactError(
                f"checkpoint for {config.name} was written from seed "
                f"{manifest['checkpoint_seed']}, config has "
                f"{config.checkpoint_seed}")
        for shard in manifest["shards"]:
            with np.load(self._model_dir(config) / shard["file"]) as arrays:
                for key in shard["keys"]:
                    yield key, arrays[key]
