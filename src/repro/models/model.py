"""The simulated transformer model: structure init, weights, forwarding.

``Model.forward`` launches the model's kernels on the simulated stream —
eagerly, or recorded into an ongoing stream capture — with the exact
allocation behaviour the Medusa analysis depends on: weight buffers are
allocated once in deterministic layer order (structure initialization),
activations are transient pool allocations freed per layer (creating the
address-reuse aliasing of Figure 6), and cuBLAS-style kernels acquire their
permanent magic workspace on first launch (warm-up).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import EngineError, InvalidValueError
from repro.models.config import (
    EPILOGUE_BASE_KERNELS,
    WEIGHTED_LAYER_KERNELS,
    ModelConfig,
)
from repro.models.kernels_catalog import all_kernel_keys, kernel_spec
from repro.models.weights import CheckpointStore, declared_sizes, weight_buffer_keys
from repro.simgpu.kernels import KernelParam, KernelSpec, ParamKind, magic_values
from repro.simgpu.memory import Buffer
from repro.simgpu.process import CudaProcess


@dataclass
class ForwardContext:
    """Persistent buffers a forwarding reads and writes.

    ``input_buffer``/``output_buffer`` are the engine's persistent graph I/O
    buffers (allocated once, before capture — so their contents never need
    materializing).  ``kv_buffer`` is the engine's KV cache region; layer ``i``
    addresses the interior pointer ``kv_buffer.address + i * kv_layer_stride``
    (exercising §4.1's within-range pointer matching).
    """

    input_buffer: Buffer
    output_buffer: Buffer
    kv_buffer: Buffer
    kv_layer_stride: int = 0


#: One parameter slot of a launch template (see ``Model._launch_template``).
_Slot = Tuple[bool, int, str, Optional[KernelParam]]


class Model:
    """One model instance living inside one simulated process."""

    def __init__(self, config: ModelConfig, process: CudaProcess):
        self.config = config
        self.process = process
        self.weight_buffers: Dict[str, Buffer] = {}
        self._specs: Dict[str, KernelSpec] = {
            key: kernel_spec(config, key) for key in all_kernel_keys(config)
        }
        self._templates: Dict[str, Tuple[_Slot, ...]] = {
            spec.name: self._launch_template(spec)
            for spec in self._specs.values()
        }
        # Pointer params are immutable (size, value) pairs and the same few
        # hundred addresses recur in every forwarding: share one object per
        # address instead of allocating one per launch.  Consts (batch
        # sizes, sequence lengths, layer indices) recur the same way.
        self._pointer_params: Dict[int, KernelParam] = {}
        self._const_params: Dict[Tuple[int, int], KernelParam] = {}
        self._weights_loaded = False

    # -- loading-phase stages (timing is accounted by the engine) ------------

    def initialize_structure(self) -> None:
        """Stage 1: allocate every weight buffer, in deterministic order."""
        if self.weight_buffers:
            raise EngineError(f"{self.config.name}: structure already initialized")
        sizes = declared_sizes(self.config)
        for key in weight_buffer_keys(self.config):
            self.weight_buffers[key] = self.process.malloc(
                sizes[key], tag="weight")

    def load_weights(self, store: CheckpointStore) -> None:
        """Stage 2: stream the checkpoint into the pre-allocated buffers.

        Each tensor is a host->device copy paying real (simulated) PCIe/SSD
        bandwidth, so the stage's duration emerges from the copies rather
        than being asserted.
        """
        if not self.weight_buffers:
            raise EngineError(f"{self.config.name}: structure not initialized")
        for key, payload in store.iter_payloads(self.config):
            self.process.memcpy_h2d(self.weight_buffers[key], payload)
        self._weights_loaded = True

    @property
    def weights_loaded(self) -> bool:
        return self._weights_loaded

    # -- forwarding ------------------------------------------------------------

    def num_forward_kernels(self, batch_size: int) -> int:
        return self.config.nodes_for_batch(batch_size)

    def forward(self, batch_size: int, num_tokens: int,
                ctx: ForwardContext) -> Buffer:
        """Run one forwarding (eager, or recorded if the stream is capturing).

        Returns the output buffer.  Transient activations are pool-freed per
        layer; the caller supplies persistent I/O and KV buffers via ``ctx``.
        """
        process = self.process
        stream = process.default_stream
        capturing = stream.is_capturing
        template = self.config.kernel_template()

        launched = 0
        # Shared by every launch of this forwarding: the stream copies it
        # into each graph node and launch record.
        batch_dims = {"batch_size": batch_size}
        no_consts: Dict[str, int] = {}

        def launch(key: str, roles: Dict[str, int],
                   consts: Optional[Dict[str, int]] = None,
                   dims: Optional[Dict[str, int]] = None) -> None:
            nonlocal launched
            spec = self._specs[key]
            process.launch(spec, self._params(spec, roles, consts or no_consts),
                           launch_dims=dims or batch_dims)
            launched += 1

        temp_bytes = max(256, batch_size * self.config.hidden_size * 2)

        def temp() -> Buffer:
            return process.malloc(temp_bytes, tag="act")

        # Prologue: embedding.
        hidden = temp()
        launch("embed_tokens", {
            "input": ctx.input_buffer.address,
            "weight": self._weight("embed_tokens.weight").address,
            "output": hidden.address,
        })

        # The structurally identical layer stack (§5.2).
        for layer in range(self.config.num_layers):
            hidden = self._forward_layer(layer, hidden, batch_size,
                                         ctx, temp, launch,
                                         template.layer_kernels)

        # Epilogue: final norm -> lm head -> sampling -> aux.
        normed = temp()
        launch("final_layernorm", {
            "input": hidden.address,
            "weight": self._weight("final_layernorm.weight").address,
            "output": normed.address,
        }, consts={"n": self.config.hidden_size})
        process.pool_free(hidden.address)
        logits = temp()
        launch("lm_head", {
            "input": normed.address,
            "weight": self._weight("lm_head.weight").address,
            "output": logits.address,
        })
        process.pool_free(normed.address)
        launch("sample", {
            "input": logits.address,
            "output": ctx.output_buffer.address,
        })
        for aux_index in range(template.epilogue_aux):
            aux_out = temp()
            launch(f"aux_{aux_index:02d}", {
                "input": ctx.output_buffer.address,
                "output": aux_out.address,
            })
            process.pool_free(aux_out.address)
        if batch_size in template.reduce_batches:
            reduce_out = temp()
            launch("batch_reduce", {
                "input": logits.address,
                "output": reduce_out.address,
            })
            process.pool_free(reduce_out.address)
        process.pool_free(logits.address)

        expected = self.num_forward_kernels(batch_size)
        if launched != expected:
            raise EngineError(
                f"{self.config.name}: forward launched {launched} kernels, "
                f"expected {expected} (batch {batch_size})")

        if not capturing:
            process.clock.advance(process.cost_model.eager_step_time(
                self.config.param_bytes, num_tokens, launched))
        return ctx.output_buffer

    # -- internals ---------------------------------------------------------------

    def _forward_layer(self, layer: int, hidden: Buffer, batch_size: int,
                       ctx: ForwardContext, temp, launch,
                       layer_kernels) -> Buffer:
        """One transformer layer; returns the carried hidden buffer."""
        w = lambda kernel_key: self._weight(
            f"layer{layer:03d}.{kernel_key}.weight").address
        kv_pointer = ctx.kv_buffer.address + layer * ctx.kv_layer_stride
        has = set(layer_kernels)
        consts_n = {"n": self.config.hidden_size}
        temps: List[Buffer] = []

        def new_temp() -> Buffer:
            buffer = temp()
            temps.append(buffer)
            return buffer

        x = hidden
        normed = new_temp()
        launch("input_layernorm", {
            "input": x.address, "weight": w("input_layernorm"),
            "output": normed.address}, consts=consts_n)
        qkv = new_temp()
        launch("qkv_proj", {
            "input": normed.address, "weight": w("qkv_proj"),
            "output": qkv.address}, consts={"seed": layer + 1})
        rotated = new_temp()
        launch("rotary_embed", {
            "input": qkv.address, "output": rotated.address},
            consts={"rot_steps": layer})
        attn = new_temp()
        launch("paged_attention", {
            "input": rotated.address, "kv": kv_pointer,
            "output": attn.address}, consts={"layer_idx": layer})
        o_out = new_temp()
        launch("o_proj", {
            "input": attn.address, "weight": w("o_proj"),
            "output": o_out.address})
        carry = new_temp()
        launch("attn_residual", {
            "input": x.address, "input_b": o_out.address,
            "output": carry.address})

        if "post_layernorm" in has:
            normed2 = new_temp()
            launch("post_layernorm", {
                "input": carry.address, "weight": w("post_layernorm"),
                "output": normed2.address}, consts=consts_n)
        else:
            normed2 = carry
        if "gate_up_proj" in has:
            gate = new_temp()
            launch("gate_up_proj", {
                "input": normed2.address, "weight": w("gate_up_proj"),
                "output": gate.address})
            mlp_in = gate
        else:
            mlp_in = normed2
        if "silu_and_mul" in has:
            activated = new_temp()
            launch("silu_and_mul", {
                "input": mlp_in.address, "input_b": normed2.address,
                "output": activated.address})
            mlp_in = activated
        if "down_proj" in has:
            down = new_temp()
            launch("down_proj", {
                "input": mlp_in.address, "weight": w("down_proj"),
                "output": down.address})
            mlp_in = down
        if "mlp_residual" in has:
            merged = new_temp()
            launch("mlp_residual", {
                "input": carry.address, "input_b": mlp_in.address,
                "output": merged.address})
            out = merged
        else:
            out = mlp_in
        if "attn_output_scale" in has:
            scaled = new_temp()
            launch("attn_output_scale", {
                "input": out.address, "output": scaled.address})
            out = scaled
        if "extra_layernorm" in has:
            extra = new_temp()
            launch("extra_layernorm", {
                "input": out.address, "weight": w("extra_layernorm"),
                "output": extra.address}, consts=consts_n)
            out = extra

        # Free this layer's transients (and the carried-in hidden), keeping
        # only the buffer carried to the next layer.  LIFO pool reuse across
        # layers is what recreates Figure 6's aliasing.
        process = self.process
        process.pool_free(x.address)
        for buffer in temps:
            if buffer is not out:
                process.pool_free(buffer.address)
        return out

    def _weight(self, key: str) -> Buffer:
        buffer = self.weight_buffers.get(key)
        if buffer is None:
            raise EngineError(f"{self.config.name}: no weight buffer {key!r}; "
                              f"structure not initialized?")
        return buffer

    def _launch_template(self, spec: KernelSpec) -> Tuple[_Slot, ...]:
        """Per-spec launch layout: ``(is_pointer, size, role, default)``.

        ``default`` is the const's prebuilt :class:`KernelParam` (None for
        pointers and for consts every launch must supply).
        """
        want_a, want_b = magic_values(spec.name)
        defaults = {
            "magic_a_expected": want_a,
            "magic_b_expected": want_b,
            "seed": 1,
            "n": self.config.hidden_size,
            "rot_steps": 0,
            "layer_idx": 0,
        }
        template = []
        for slot in spec.params:
            value = None if slot.kind is ParamKind.POINTER \
                else defaults.get(slot.role)
            template.append((
                slot.kind is ParamKind.POINTER, slot.size, slot.role,
                None if value is None else KernelParam(slot.size, int(value))))
        return tuple(template)

    def _params(self, spec: KernelSpec, roles: Dict[str, int],
                consts: Dict[str, int]) -> List[KernelParam]:
        pointers = self._pointer_params
        interned = self._const_params
        params: List[KernelParam] = []
        for is_pointer, size, role, default in self._templates[spec.name]:
            if is_pointer:
                value = roles.get(role, 0)
                param = pointers.get(value)
                if param is None:
                    param = pointers[value] = KernelParam(size, value)
                params.append(param)
            elif role in consts:
                key = (size, int(consts[role]))
                param = interned.get(key)
                if param is None:
                    param = interned[key] = KernelParam(*key)
                params.append(param)
            elif default is not None:
                params.append(default)
            else:
                raise InvalidValueError(
                    f"kernel {spec.name}: missing const {role!r}")
        return params
