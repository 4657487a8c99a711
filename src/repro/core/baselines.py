"""Alternative cold-start mitigations the paper compares against (§2.4, §9).

- :class:`CheckpointRestoreBaseline` — the checkpoint/restore line of work
  (FaaSnap, Catalyzer, SEUSS, ...): persist the complete state of a launched
  instance and restore it wholesale.  Restoring works, but the checkpoint
  carries the full device image (weights + KV region + graph pool + host
  state), so it is orders of magnitude heavier than Medusa's artifact,
  which materializes only the CUDA graphs and the KV-init value (§9: Medusa
  "is more lightweight and could be combined with these previous works").
- Hot spares and deferred capture are modeled in
  :mod:`repro.serverless.simulator` (``hot_spares``/``deferred_capture``)
  and :class:`repro.engine.strategies.Strategy.DEFERRED` respectively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.models.config import ModelConfig
from repro.models.zoo import get_model_config
from repro.simgpu.costmodel import CostModel

#: Rough serialized size of one CUDA graph node inside a device snapshot.
_NODE_STATE_BYTES = 256
#: Host-side process image (python heap, runtime, tokenizer, ...).
_HOST_IMAGE_BYTES = int(1.5 * 1024**3)


@dataclass
class CheckpointRestoreBaseline:
    """Analytic model of a full-instance checkpoint/restore cold start."""

    config: ModelConfig
    cost_model: CostModel = field(default_factory=CostModel)
    restore_fixup_time: float = 0.25    # page-table/driver reattachment

    def __post_init__(self) -> None:
        if isinstance(self.config, str):
            self.config = get_model_config(self.config)

    def checkpoint_bytes(self, kv_bytes: int) -> int:
        """Size of the full snapshot: device image + host image."""
        graph_state = self.config.total_graph_nodes * _NODE_STATE_BYTES
        return (self.config.param_bytes + kv_bytes + graph_state
                + _HOST_IMAGE_BYTES)

    def restore_time(self, kv_bytes: int) -> float:
        """Cold start latency: stream the snapshot back + fix up handles."""
        return (self.checkpoint_bytes(kv_bytes)
                / self.cost_model.gpu.h2d_bandwidth
                + self.restore_fixup_time)

