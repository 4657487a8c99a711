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
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import EngineError, InvalidValueError
from repro.models.config import WEIGHTED_LAYER_KERNELS, ModelConfig
from repro.models.kernels_catalog import all_kernel_keys, kernel_spec
from repro.models.weights import declared_sizes, iter_payloads, weight_buffer_keys
from repro.simgpu.kernels import KernelParam, KernelSpec, ParamKind, magic_values
from repro.simgpu.memory import Buffer
from repro.simgpu.process import (
    ALLOC_EVENT,
    FREE_EVENT,
    LAUNCH_EVENT,
    CudaProcess,
    EventBlock,
    LayerMark,
)


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

#: A forwarding runs its layers call by call up to this one and stamps the
#: rest (see ``Model.forward``).  A layer's temporaries repeat with period
#: two from layer 2: layers 2 and 3 are the templates, and the state after
#: layer 3 must equal the one after layer 1.
_STAMP_FROM = 4


class _LayerStep(NamedTuple):
    """One launch of a transformer layer, writing a fresh temporary."""

    key: str
    #: (role, source): source 0 is the buffer carried into the layer,
    #: ``i + 1`` the output of step ``i``
    inputs: Tuple[Tuple[str, int], ...]
    weight: int                 # index of the layer's weight read, or -1
    kv: bool = False                          # reads the layer's KV pointer
    consts: Tuple[Tuple[str, int], ...] = ()  # (role, c): the layer index + c


def _layer_plan(layer_kernels: Tuple[str, ...]) -> Tuple[_LayerStep, ...]:
    """The launches of one layer, in order; the layer carries out the
    last one's output."""
    has = set(layer_kernels)
    steps: List[_LayerStep] = []
    weights = [key for key in layer_kernels if key in WEIGHTED_LAYER_KERNELS]

    def add(key: str, *inputs: Tuple[str, int], **flags) -> int:
        steps.append(_LayerStep(
            key, inputs, weights.index(key) if key in weights else -1,
            **flags))
        return len(steps)

    carried = 0
    normed = add("input_layernorm", ("input", carried))
    qkv = add("qkv_proj", ("input", normed), consts=(("seed", 1),))
    rotated = add("rotary_embed", ("input", qkv),
                  consts=(("rot_steps", 0),))
    attn = add("paged_attention", ("input", rotated), kv=True,
               consts=(("layer_idx", 0),))
    o_out = add("o_proj", ("input", attn))
    carry = add("attn_residual", ("input", carried), ("input_b", o_out))
    normed2 = add("post_layernorm", ("input", carry)) \
        if "post_layernorm" in has else carry
    mlp_in = normed2
    if "gate_up_proj" in has:
        mlp_in = add("gate_up_proj", ("input", normed2))
    if "silu_and_mul" in has:
        mlp_in = add("silu_and_mul", ("input", mlp_in),
                     ("input_b", normed2))
    if "down_proj" in has:
        mlp_in = add("down_proj", ("input", mlp_in))
    out = mlp_in
    if "mlp_residual" in has:
        out = add("mlp_residual", ("input", carry), ("input_b", mlp_in))
    if "attn_output_scale" in has:
        out = add("attn_output_scale", ("input", out))
    if "extra_layernorm" in has:
        out = add("extra_layernorm", ("input", out))
    if out != len(steps) or [step.key for step in steps] \
            != list(layer_kernels):
        raise EngineError(f"layer kernels {layer_kernels} do not chain")
    return tuple(steps)


class _LayerRecord(NamedTuple):
    """A layer run call by call, kept as a template for stamped ones."""

    x: Buffer                             # carried into the layer
    outputs: List[Buffer]                 # per step
    params: List[List[KernelParam]]       # per step, as launched


class _StampSlots(NamedTuple):
    """Where one layer's launches keep their per-layer values: positions
    in the layer's flat parameter array."""

    counts: List[int]         # parameters per step
    sizes: List[int]          # per flat slot
    weights: List[int]        # weight pointers, by the steps' ``weight``
    kv: List[int]             # KV pointers
    consts: List[int]         # consts that are the layer index + an offset
    const_offsets: np.ndarray


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
        self._layer_plan = _layer_plan(config.kernel_template().layer_kernels)
        self._stamp_slots = self._find_stamp_slots()
        #: per layer, the weight buffers its steps read, by ``step.weight``
        self._layer_weight_names: List[List[str]] = [
            [f"layer{layer:03d}.{step.key}.weight"
             for step in self._layer_plan if step.weight >= 0]
            for layer in range(config.num_layers)]

    # -- loading-phase stages (timing is accounted by the engine) ------------

    def initialize_structure(self) -> None:
        """Stage 1: allocate every weight buffer, in deterministic order."""
        if self.weight_buffers:
            raise EngineError(f"{self.config.name}: structure already initialized")
        sizes = declared_sizes(self.config)
        for key in weight_buffer_keys(self.config):
            self.weight_buffers[key] = self.process.malloc(
                sizes[key], tag="weight")

    def load_weights(self) -> None:
        """Stage 2: stream the checkpoint into the pre-allocated buffers.

        Each tensor is a host->device copy paying real (simulated) PCIe/SSD
        bandwidth, so the stage's duration emerges from the copies rather
        than being asserted.
        """
        if not self.weight_buffers:
            raise EngineError(f"{self.config.name}: structure not initialized")
        for key, payload in iter_payloads(self.config):
            self.process.memcpy_h2d(self.weight_buffers[key], payload)

    # -- forwarding ------------------------------------------------------------

    def num_forward_kernels(self, batch_size: int) -> int:
        return self.config.nodes_for_batch(batch_size)

    def forward(self, batch_size: int, num_tokens: int,
                ctx: ForwardContext) -> Buffer:
        """Run one forwarding (eager, or recorded if the stream is capturing).

        Returns the output buffer.  Transient activations are pool-freed per
        layer; the caller supplies persistent I/O and KV buffers via ``ctx``.

        Layers 0-3 run call by call.  When the process allows it
        (:meth:`CudaProcess.stamps_layers`) and layers 2-3 brought it back
        to the state layer 1 left (:meth:`CudaProcess.layers_repeat`),
        layers 4 and on repeat 2 and 3 in turn, so they are stamped from
        those two as one :class:`EventBlock`; otherwise every layer runs
        call by call.  Both end in the same process state.
        """
        process = self.process
        stream = process.default_stream
        capturing = stream.is_capturing
        template = self.config.kernel_template()
        num_layers = self.config.num_layers

        launched = 0
        # Shared by every launch of this forwarding: the stream copies it
        # into each graph node and launch record.
        batch_dims = {"batch_size": batch_size}
        no_consts: Dict[str, int] = {}

        def launch(key: str, roles: Dict[str, int],
                   consts: Optional[Dict[str, int]] = None
                   ) -> List[KernelParam]:
            nonlocal launched
            spec = self._specs[key]
            params = process.launch(
                spec, self._params(spec, roles, consts or no_consts),
                launch_dims=batch_dims)
            launched += 1
            return params

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
        stamps = num_layers > _STAMP_FROM and process.stamps_layers()
        marks: List[LayerMark] = []
        templates: List[_LayerRecord] = []
        for layer in range(num_layers):
            if (layer == _STAMP_FROM and stamps
                    and process.layers_repeat(marks[0], marks[2])):
                hidden = self._stamp_layers(layer, hidden, ctx, templates,
                                            marks, batch_dims)
                launched += (num_layers - layer) * len(self._layer_plan)
                break
            outputs, params = self._forward_layer(layer, hidden, ctx, temp,
                                                  launch)
            if stamps and _STAMP_FROM - 2 <= layer < _STAMP_FROM:
                templates.append(_LayerRecord(hidden, outputs, params))
            hidden = outputs[-1]
            if stamps and _STAMP_FROM - 3 <= layer < _STAMP_FROM:
                marks.append(process.mark_layer(hidden))

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

    def _forward_layer(self, layer: int, x: Buffer, ctx: ForwardContext,
                       temp, launch
                       ) -> Tuple[List[Buffer], List[List[KernelParam]]]:
        """One transformer layer, call by call: each step's output buffer
        (the last is carried to the next layer) and launched parameters,
        what a stamped layer repeats."""
        outputs: List[Buffer] = []
        launched: List[List[KernelParam]] = []
        addresses = [x.address]
        weights = self._layer_weight_names[layer]
        for step in self._layer_plan:
            out = temp()
            roles = {role: addresses[source] for role, source in step.inputs}
            roles["output"] = out.address
            if step.weight >= 0:
                roles["weight"] = self._weight(weights[step.weight]).address
            if step.kv:
                roles["kv"] = (ctx.kv_buffer.address
                               + layer * ctx.kv_layer_stride)
            launched.append(launch(step.key, roles, {
                role: layer + offset for role, offset in step.consts}))
            outputs.append(out)
            addresses.append(out.address)

        # Free this layer's transients (and the carried-in hidden), keeping
        # only the buffer carried to the next layer.  LIFO pool reuse across
        # layers is what recreates Figure 6's aliasing.
        process = self.process
        process.pool_free(x.address)
        for buffer in outputs[:-1]:
            process.pool_free(buffer.address)
        return outputs, launched

    def _stamp_layers(self, first: int, hidden: Buffer, ctx: ForwardContext,
                      templates: List["_LayerRecord"],
                      marks: List[LayerMark], dims: Dict[str, int]) -> Buffer:
        """Apply layers ``first`` and on as one block; layer ``first + i``
        repeats template ``i % 2`` (layers ``first - 2`` and ``first - 1``).
        Per-layer values are looked up, never extrapolated: weight
        addresses from ``weight_buffers``, the KV pointer, and the
        ``seed``/``rot_steps``/``layer_idx`` consts.  Returns the buffer
        carried out of the last layer."""
        process = self.process
        plan = self._layer_plan
        steps = len(plan)
        layers = np.arange(first, self.config.num_layers)
        count = layers.size
        pattern = np.arange(count) % 2
        outputs = [record.outputs for record in templates]
        base = process.allocator.num_allocations

        # Allocations: one per step, at the template's addresses.
        payloads: List[object] = []
        payload_ids: Dict[int, int] = {}
        ids = []
        for buffer in outputs[0] + outputs[1]:
            payload = buffer.payload
            if payload is not None and id(payload) not in payload_ids:
                payload_ids[id(payload)] = len(payloads)
                payloads.append(payload)
            ids.append(-1 if payload is None else payload_ids[id(payload)])
        address = np.array([[buffer.address for buffer in out]
                            for out in outputs], dtype=np.int64)
        size = np.array([[buffer.size for buffer in out] for out in outputs],
                        dtype=np.int64)
        alloc_index = base + np.arange(count * steps).reshape(count, steps)

        # Frees: the carried-in buffer, then every output but the last.
        freed_index = np.empty((count, steps), dtype=np.int64)
        freed_index[0, 0] = hidden.alloc_index
        freed_index[1:, 0] = alloc_index[:-1, -1]
        freed_index[:, 1:] = alloc_index[:, :-1]
        carried = np.array([[record.x.address] for record in templates],
                           dtype=np.int64)
        freed_address = np.concatenate([carried, address[:, :-1]],
                                       axis=1)[pattern]

        # Launches: the template's parameters, per-layer slots replaced.
        values = np.array([[param.value for params in record.params
                            for param in params] for record in templates],
                          dtype=np.int64)[pattern]
        slots = self._stamp_slots
        if slots.weights:
            values[:, slots.weights] = [
                [self._weight(name).address for name in names]
                for names in self._layer_weight_names[first:]]
        values[:, slots.kv] = (ctx.kv_buffer.address
                               + layers[:, None] * ctx.kv_layer_stride)
        values[:, slots.consts] = layers[:, None] + slots.const_offsets
        ready = process.driver.launch_ready
        kinds = np.tile(np.concatenate([
            np.tile([ALLOC_EVENT, LAUNCH_EVENT], steps),
            np.full(steps, FREE_EVENT)]), count)
        process.stamp(EventBlock(
            layers=count, kinds=kinds, alloc_index=alloc_index.reshape(-1),
            address=address[pattern].reshape(-1),
            size=size[pattern].reshape(-1),
            payload_ids=np.array(ids, dtype=np.int64).reshape(2, steps)[
                pattern].reshape(-1),
            payloads=payloads, tag=outputs[0][0].tag,
            pool=outputs[0][0].pool,
            freed_index=freed_index.reshape(-1),
            freed_address=freed_address.reshape(-1),
            kernels=np.tile(np.arange(steps), count),
            kernel_table=[(self._specs[step.key].name,
                           self._specs[step.key].library) for step in plan],
            kernel_addresses=np.tile([
                ready[self._specs[step.key].name][1] for step in plan],
                count),
            param_counts=np.tile(slots.counts, count),
            param_sizes=np.tile(slots.sizes, count),
            param_values=values.reshape(-1),
            launch_dims=dims, captured=process.default_stream.is_capturing,
        ), marks)
        return process.allocator.buffer_by_alloc_index(
            int(alloc_index[-1, -1]))

    def _weight(self, key: str) -> Buffer:
        buffer = self.weight_buffers.get(key)
        if buffer is None:
            raise EngineError(f"{self.config.name}: no weight buffer {key!r}; "
                              f"structure not initialized?")
        return buffer

    def _find_stamp_slots(self) -> _StampSlots:
        counts, sizes, weights, kv, consts, offsets = [], [], [], [], [], []
        for step in self._layer_plan:
            per_layer = dict(step.consts)
            for is_pointer, size, role, _default in \
                    self._templates[self._specs[step.key].name]:
                position = len(sizes)
                if is_pointer and role == "weight" and step.weight >= 0:
                    weights.append(position)
                elif is_pointer and role == "kv" and step.kv:
                    kv.append(position)
                elif not is_pointer and role in per_layer:
                    consts.append(position)
                    offsets.append(per_layer[role])
                sizes.append(size)
            counts.append(len(sizes) - sum(counts))
        if len(weights) != sum(step.weight >= 0 for step in self._layer_plan):
            raise EngineError(f"{self.config.name}: a weighted layer kernel "
                              f"takes no weight pointer")
        return _StampSlots(counts, sizes, weights, kv, consts,
                           np.array(offsets, dtype=np.int64))

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
