"""The simulated process: one cold start = one fresh ``CudaProcess``.

Each process launch draws a new seed-derived address layout: the device heap
base and every library's load address are randomized, so *nothing* recorded
as a raw address in a previous process is valid here.  This is the
non-determinism Medusa's materialization has to survive (paper §2.5).
"""

from __future__ import annotations

import contextlib
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import InvalidValueError
from repro.simgpu.clock import SimClock
from repro.simgpu.costmodel import CostModel
from repro.simgpu.kernels import (
    CONST32_SIZE,
    KernelParam,
    KernelSpec,
    magic_values,
)
from repro.simgpu.libraries import LibraryCatalog
from repro.simgpu.driver import CudaDriver
from repro.simgpu.executor import ExecutionMode
from repro.simgpu.memory import (
    ALIGNMENT,
    Buffer,
    DeviceAllocator,
    Replayed,
    same_free_lists,
)
from repro.simgpu.stream import CaptureMark, LaunchRecord, Stream
from repro.utils.rng import SeedSequence

#: Device heap region (above the library text region, see driver.py).
_HEAP_REGION_BASE = 0x7F00_0000_0000
_HEAP_REGION_SPAN = 0x0040_0000_0000


#: :attr:`EventBlock.kinds` codes.
ALLOC_EVENT, FREE_EVENT, LAUNCH_EVENT = 0, 1, 2


class EventBlock(NamedTuple):
    """Stamped forwarding layers' events as columns (what
    :meth:`CudaProcess.stamp` applies).

    ``kinds`` orders the events as the per-call hooks would have seen
    them.  Every allocation has ``tag`` and ``pool`` and reuses a pooled
    block, every free is a pool free, and every launch has
    ``launch_dims`` and is captured when ``captured``.
    """

    layers: int
    kinds: np.ndarray             # per event: ALLOC/FREE/LAUNCH_EVENT
    alloc_index: np.ndarray       # per allocation
    address: np.ndarray
    size: np.ndarray              # aligned bytes
    payload_ids: np.ndarray       # carried payload: index into payloads, -1
    payloads: List[object]
    tag: str
    pool: str
    freed_index: np.ndarray       # per free: the allocation freed
    freed_address: np.ndarray
    kernels: np.ndarray           # per launch: index into kernel_table
    kernel_table: List[Tuple[str, str]]     # (kernel name, library)
    kernel_addresses: np.ndarray  # per launch
    param_counts: np.ndarray      # per launch
    param_sizes: np.ndarray       # flat, param_counts[i] per launch
    param_values: np.ndarray
    launch_dims: Mapping[str, int]
    captured: bool


class LayerMark(NamedTuple):
    """A process's state after one forwarding layer
    (:meth:`CudaProcess.mark_layer`)."""

    carry: int                    # address of the buffer the layer returns
    free_lists: Dict[Tuple[str, int], list]
    magic: Dict[str, Tuple[int, int]]
    launch_ready: Dict[str, Tuple[str, int]]
    capture: Optional[CaptureMark]


class Interceptor:
    """Base class for Medusa's offline hooks (allocation + launch trace).

    ``adds_overhead`` controls whether the process charges the per-event
    interception cost while this hook is attached; Medusa's offline tracer
    pays it, a passive profiler does not.  A hook that overrides
    ``on_block`` takes stamped layers as one :class:`EventBlock`; while
    one that does not is attached, every layer runs call by call.
    """

    adds_overhead = True

    def on_alloc(self, buffer: Buffer) -> None:  # pragma: no cover - interface
        pass

    def on_free(self, buffer: Buffer) -> None:  # pragma: no cover - interface
        pass

    def on_launch(self, record: LaunchRecord) -> None:  # pragma: no cover
        pass

    def on_empty_cache(self) -> None:  # pragma: no cover - interface
        pass

    def on_block(self, block: EventBlock) -> None:  # pragma: no cover
        pass


def _takes_blocks(interceptor: Interceptor) -> bool:
    return type(interceptor).on_block is not Interceptor.on_block


def _hooks_allocations(interceptor: Interceptor) -> bool:
    """Whether ``interceptor`` overrides a per-allocation hook."""
    kind = type(interceptor)
    return (kind.on_alloc is not Interceptor.on_alloc
            or kind.on_free is not Interceptor.on_free
            or kind.on_empty_cache is not Interceptor.on_empty_cache)


class CudaProcess:
    """One simulated process: clock + allocator + driver + streams."""

    def __init__(self, seed: int, catalog: LibraryCatalog,
                 cost_model: Optional[CostModel] = None,
                 mode: ExecutionMode = ExecutionMode.COMPUTE,
                 name: str = "proc"):
        self.seed = int(seed)
        self.name = name
        self.catalog = catalog
        self.cost_model = cost_model or CostModel()
        self.mode = mode
        self.clock = SimClock()
        seeds = SeedSequence(self.seed).child("process", name)
        heap_offset = int(seeds.generator("heap").integers(
            0, _HEAP_REGION_SPAN // ALIGNMENT))
        self.allocator = DeviceAllocator(
            base=_HEAP_REGION_BASE + heap_offset * ALIGNMENT,
            capacity_bytes=self.cost_model.gpu.total_memory_bytes)
        self.driver = CudaDriver(catalog, seeds.child("aslr"))
        self.default_stream = Stream(self, name="stream0")
        self._interceptors: List[Interceptor] = []
        self._charges_interception = False   # any hook with adds_overhead
        self._observes_allocations = False   # a hook a replay would skip
        self._magic: Dict[str, Tuple[int, int]] = {}   # kernel -> (addr_a, addr_b)
        self._current_pool = "default"

    # -- interception ---------------------------------------------------------

    def add_interceptor(self, interceptor: Interceptor) -> None:
        self._interceptors.append(interceptor)
        self._update_charging()

    def remove_interceptor(self, interceptor: Interceptor) -> None:
        self._interceptors.remove(interceptor)
        self._update_charging()

    def _update_charging(self) -> None:
        # ``adds_overhead`` is read when hooks attach or detach, not per event.
        self._charges_interception = any(
            i.adds_overhead for i in self._interceptors)
        self._observes_allocations = self._charges_interception or any(
            _hooks_allocations(i) for i in self._interceptors)

    @property
    def intercepted(self) -> bool:
        return bool(self._interceptors)

    def _charge_interception(self) -> None:
        if self._charges_interception:
            self.clock.advance(self.cost_model.interception_per_event)

    def notify_launch(self, record: LaunchRecord) -> None:
        if not self._interceptors:
            return
        self._charge_interception()
        for interceptor in self._interceptors:
            interceptor.on_launch(record)

    # -- memory ---------------------------------------------------------------

    @contextlib.contextmanager
    def memory_pool(self, pool: str):
        """Route allocations to a named pool (PyTorch's graph-pool analogue)."""
        previous = self._current_pool
        self._current_pool = pool
        try:
            yield
        finally:
            self._current_pool = previous

    def malloc(self, size: int, tag: str = "",
               payload: Optional[np.ndarray] = None,
               pool: Optional[str] = None) -> Buffer:
        buffer = self.allocator.malloc(size, tag=tag, payload=payload,
                                       pool=pool or self._current_pool)
        if self._interceptors:
            self._charge_interception()
            for interceptor in self._interceptors:
                interceptor.on_alloc(buffer)
        return buffer

    def free(self, address: int) -> None:
        # The hooks get the freed buffer; look it up before it stops
        # resolving.  An unknown address raises here, as it does in free.
        buffer = self.allocator.resolve(address) if self._interceptors \
            else None
        self.allocator.free(address)
        if self._interceptors:
            self._charge_interception()
            for interceptor in self._interceptors:
                interceptor.on_free(buffer)

    def pool_free(self, address: int) -> None:
        """Caching-allocator free (see DeviceAllocator.pool_free)."""
        buffer = self.allocator.resolve(address) if self._interceptors \
            else None
        self.allocator.pool_free(address)
        if self._interceptors:
            self._charge_interception()
            for interceptor in self._interceptors:
                interceptor.on_free(buffer)

    def replay(self, table, start: int = 0, stop: Optional[int] = None,
               stop_alloc_index: Optional[int] = None) -> Replayed:
        """Replay recorded (de)allocation rows in one allocator call
        (:meth:`DeviceAllocator.replay`).

        Allocation hooks and the interception charge observe one call at
        a time, so a replay raises instead of skipping them when an
        interceptor has either; a launch-only passive observer (the
        kernel profiler) sees nothing of the rows and may stay attached.
        """
        if self._observes_allocations:
            raise InvalidValueError(
                "allocation replay with an allocation interceptor "
                "attached: the hooks see only per-call malloc/free")
        return self.allocator.replay(table, start, stop, stop_alloc_index)

    def memcpy_h2d(self, buffer: Buffer, host_data: np.ndarray) -> None:
        """``cudaMemcpyAsync`` host->device: write payload, pay bandwidth.

        Time is charged per copy from the buffer's *declared* size, so a
        whole-model weight load mechanically sums to
        ``param_bytes / h2d_bandwidth`` — the loading-stage formula.
        """
        self.clock.advance(buffer.size / self.cost_model.gpu.h2d_bandwidth)
        buffer.write(host_data)

    def empty_cache(self) -> int:
        """``torch.cuda.empty_cache()`` — releases cached pool blocks."""
        released = self.allocator.empty_cache()
        if self._interceptors:
            self._charge_interception()
            for interceptor in self._interceptors:
                interceptor.on_empty_cache()
        return released

    # -- cuBLAS-style permanent workspace ("magic") buffers ---------------------

    def has_magic(self, kernel_name: str) -> bool:
        return kernel_name in self._magic

    def setup_magic(self, spec: KernelSpec) -> Tuple[int, int]:
        """First-touch workspace setup: allocate + write the magic scalars.

        These are the paper's *permanent buffers*: allocated during warm-up,
        never freed, each holding a 4-byte magic value the kernel checks at
        every launch (§4.3).
        """
        value_a, value_b = magic_values(spec.name)
        buf_a = self.malloc(CONST32_SIZE, tag="magic",
                            payload=np.full((1, 1), float(value_a)))
        buf_b = self.malloc(CONST32_SIZE, tag="magic",
                            payload=np.full((1, 1), float(value_b)))
        self._magic[spec.name] = (buf_a.address, buf_b.address)
        return buf_a.address, buf_b.address

    def register_magic(self, kernel_name: str,
                       addr_a: int, addr_b: int) -> None:
        """Adopt pre-existing magic buffers (restoration/plan-launch path)."""
        self._magic[kernel_name] = (addr_a, addr_b)

    def reset_magic_workspaces(self) -> None:
        """Drop all per-kernel magic workspaces (pool-freeing their buffers).

        Mirrors PyTorch allocating a *fresh* cuBLAS workspace for graph
        capture: the capture-stage warm-up re-acquires per-kernel workspace
        buffers inside the capture window, which is what makes them land in
        the "permanent" contents class Medusa must dump and restore (§4.3).
        """
        for addr_a, addr_b in self._magic.values():
            self.pool_free(addr_a)
            self.pool_free(addr_b)
        self._magic.clear()

    def patch_magic_params(self, spec: KernelSpec,
                           params: Sequence[KernelParam]) -> List[KernelParam]:
        """Substitute the registered magic buffer addresses into ``params``."""
        addr_a, addr_b = self._magic[spec.name]
        patched = list(params)
        for index, role in spec.pointer_slots:
            if role == "magic_a":
                patched[index] = KernelParam(spec.params[index].size, addr_a)
            elif role == "magic_b":
                patched[index] = KernelParam(spec.params[index].size, addr_b)
        return patched

    # -- launching & capture -----------------------------------------------------

    def launch(self, spec: KernelSpec, params: Sequence[KernelParam],
               launch_dims: Optional[Dict[str, int]] = None,
               preset_magic: bool = False) -> Sequence[KernelParam]:
        """Launch on the default stream; returns the launched parameters
        (:meth:`Stream.launch_kernel`)."""
        return self.default_stream.launch_kernel(
            spec, params, launch_dims, preset_magic=preset_magic)

    def synchronize(self) -> None:
        self.default_stream.synchronize()

    # -- stamped forwarding layers (see repro.models.model) ------------------

    def stamps_layers(self) -> bool:
        """Whether a forwarding's layers may be stamped: no kernel
        executes (the stream captures, or the mode only times) and every
        attached hook takes :class:`EventBlock` rows."""
        return ((self.default_stream.is_capturing
                 or self.mode is not ExecutionMode.COMPUTE)
                and all(_takes_blocks(i) for i in self._interceptors))

    def mark_layer(self, carry: Buffer) -> LayerMark:
        """What :meth:`layers_repeat` compares: the state a layer leaves."""
        capture = self.default_stream._capture
        return LayerMark(carry.address, self.allocator.free_list_copy(),
                         dict(self._magic), dict(self.driver.launch_ready),
                         None if capture is None else capture.mark())

    def layers_repeat(self, first: LayerMark, third: LayerMark) -> bool:
        """Whether the two layers after ``first`` brought the process back
        to it: the same carried address, magic workspaces, ready kernels
        and free lists, and a capture that repeats node-shifted.  Layers
        that start from such a state run as the two did, in turn."""
        if (first.carry != third.carry or first.magic != third.magic
                or first.launch_ready != third.launch_ready
                or not same_free_lists(first.free_lists, third.free_lists)):
            return False
        capture = self.default_stream._capture
        return capture is None or capture.repeats(first.capture,
                                                  third.capture)

    def stamp(self, block: EventBlock, marks: Sequence[LayerMark]) -> None:
        """Apply ``block``, the layers after the last of three ``marks``
        (:meth:`layers_repeat` held for the first and third), as the
        per-call malloc, launch and pool_free calls would: the allocator,
        the capture, every hook and the clock's per-event interception
        charge end as they would."""
        self.allocator.stamp(block, marks[1 if block.layers % 2 else 2]
                             .free_lists)
        capture = self.default_stream._capture
        if capture is not None:
            capture.stamp(block, [mark.capture for mark in marks])
        for interceptor in self._interceptors:
            interceptor.on_block(block)
        if self._charges_interception:
            self.clock.advance_each(self.cost_model.interception_per_event,
                                    len(block.kinds))

    # -- payload snapshots (validation support, §4) --------------------------------

    def snapshot_payloads(self) -> Dict[int, Optional[np.ndarray]]:
        return {
            buffer.address:
                None if buffer.payload is None else buffer.payload.copy()
            for buffer in self.allocator.live_buffers
        }

    def restore_payloads(self, snapshot: Dict[int, Optional[np.ndarray]]) -> None:
        for buffer in self.allocator.live_buffers:
            if buffer.address in snapshot:
                saved = snapshot[buffer.address]
                buffer.payload = None if saved is None else saved.copy()
