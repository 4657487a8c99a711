"""Simulated device memory: cudaMalloc/cudaFree with realistic hazards.

Two properties of real ``cudaMalloc`` matter to Medusa and are reproduced
faithfully here:

1. **Non-deterministic addresses across process launches.**  The heap base is
   randomized per process (see :class:`repro.simgpu.process.CudaProcess`), so
   raw pointers recorded in a CUDA graph are invalid in the next cold start —
   Challenge I of the paper (§2.5).
2. **Address reuse within a launch.**  Freed regions are recycled LIFO, so a
   later allocation of a compatible size returns an address that an *earlier,
   already-freed* allocation also returned.  Naively matching a kernel
   parameter against "all addresses ever returned" then finds multiple
   candidates — the false-positive scenario of Figure 6 that motivates
   trace-based backward matching (§4.1).

Buffers additionally carry a small numpy *payload* decoupled from their
*declared* byte size: declared sizes drive memory accounting at real-model
scale (a 40 GB device "filling up" exactly as in the paper), payloads keep
kernel compute cheap while remaining real data whose corruption is
observable.  Freed buffers keep a poisoned payload: a stale pointer that
sneaks through restoration produces visibly corrupt output, never a silent
pass.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import IllegalMemoryAccessError, InvalidValueError, OutOfMemoryError

#: Allocation granularity, mirroring the CUDA allocator's 256-byte alignment.
ALIGNMENT = 256

#: Value poured into a buffer's payload when it is freed.
POISON_VALUE = float("nan")

#: Buffers above this size are indexed for interior-pointer resolution.
_LARGE_THRESHOLD = 64 * 1024


def _align(size: int) -> int:
    return (size + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


class Buffer:
    """One live (or historical) device allocation.

    Slotted by hand: a restore creates tens of thousands of buffers, and
    ``dataclass(slots=True)`` needs Python 3.10.  Buffers compare by
    identity — two allocations are never the same buffer.
    """

    __slots__ = ("address", "size", "alloc_index", "tag", "pool", "payload",
                 "live")

    def __init__(self, address: int, size: int, alloc_index: int,
                 tag: str = "", pool: str = "default",
                 payload: Optional[np.ndarray] = None, live: bool = True):
        self.address = address
        self.size = size                # declared bytes (drives memory accounting)
        self.alloc_index = alloc_index  # position in this process's allocation sequence
        self.tag = tag                  # provenance label: weight/activation/workspace/kv/...
        self.pool = pool                # memory pool (PyTorch keeps graph pools private)
        self.payload = payload
        self.live = live

    def __repr__(self) -> str:
        return (f"Buffer(address=0x{self.address:x}, size={self.size}, "
                f"alloc_index={self.alloc_index}, tag={self.tag!r}, "
                f"pool={self.pool!r}, live={self.live})")

    @property
    def end(self) -> int:
        return self.address + self.size

    def contains(self, address: int) -> bool:
        return self.address <= address < self.end

    def write(self, data: np.ndarray) -> None:
        """Set payload contents (a device-side memcpy destination)."""
        if not self.live:
            raise IllegalMemoryAccessError(
                f"write to freed buffer at 0x{self.address:x}")
        self.payload = np.array(data, dtype=np.float64, copy=True)

    def read(self) -> np.ndarray:
        """Read payload contents (raises on a dangling pointer)."""
        if not self.live:
            raise IllegalMemoryAccessError(
                f"read from freed buffer at 0x{self.address:x}")
        if self.payload is None:
            raise IllegalMemoryAccessError(
                f"read from uninitialized buffer at 0x{self.address:x}")
        return self.payload


class DeviceAllocator:
    """cudaMalloc/cudaFree over a randomized heap with LIFO reuse.

    ``base`` is the randomized heap start supplied by the owning process.
    The allocator is a bump allocator with per-size free lists; freeing and
    re-allocating the same size returns the most recently freed address,
    exactly the aliasing behaviour the paper's Figure 6 illustrates.

    The allocator keeps no event log of its own: the replayable
    (de)allocation sequence (§4.2) is the trace a
    :class:`repro.core.interception.TraceInterceptor` records on the owning
    process.
    """

    def __init__(self, base: int, capacity_bytes: int):
        if base % ALIGNMENT:
            raise InvalidValueError(f"heap base 0x{base:x} is not aligned")
        self.base = base
        self.capacity_bytes = capacity_bytes
        self._cursor = base
        self._free_lists: Dict[int, List[int]] = {}
        self._live: Dict[int, Buffer] = {}
        #: every buffer ever allocated; position == alloc index
        self._history: List[Buffer] = []
        self.bytes_in_use = 0
        self.peak_bytes = 0
        self._pending: set = set()            # addresses sitting on free lists
        self._large_live: Dict[int, Buffer] = {}   # interior-pointer targets
        #: sorted keys of ``_large_live``; None when a key came or went.
        self._large_starts: Optional[List[int]] = None

    # -- core API -----------------------------------------------------------

    def malloc(self, size: int, tag: str = "",
               payload: Optional[np.ndarray] = None,
               pool: str = "default") -> Buffer:
        """Allocate ``size`` declared bytes; optionally seed a payload.

        ``pool`` namespaces the free lists: blocks freed in one pool are
        never handed to allocations from another.  This mirrors PyTorch's
        private CUDA-graph memory pools — the property that keeps ordinary
        eager allocations from claiming (and later corrupting) memory that
        captured graphs still execute through.
        """
        if size <= 0:
            raise InvalidValueError(f"cudaMalloc of non-positive size {size}")
        aligned = (size + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT
        in_use = self.bytes_in_use
        if in_use + aligned > self.capacity_bytes:
            raise OutOfMemoryError(
                f"device OOM: in use {in_use} + request {aligned} "
                f"> capacity {self.capacity_bytes}")
        free_list = self._free_lists.get((pool, aligned))
        carried_payload: Optional[np.ndarray] = None
        if free_list:
            address, pooled, carried_payload = free_list.pop()  # LIFO reuse
            self._pending.discard(address)
            if pooled:
                # A pool-freed block handed out again: the old Buffer object
                # stops resolving, but the memory (and its stale contents)
                # carries over to the new owner — exactly how the caching
                # allocator behaves on real GPUs.  bytes_in_use was never
                # decremented by the pooled free, so it does not grow here.
                superseded = self._live.pop(address, None)
                if superseded is not None:
                    superseded.live = False
            else:
                in_use += aligned
        else:
            address = self._cursor
            self._cursor = address + aligned
            in_use += aligned
        self.bytes_in_use = in_use
        if in_use > self.peak_bytes:
            self.peak_bytes = in_use
        history = self._history
        buffer = Buffer(address, aligned, len(history), tag, pool,
                        carried_payload)
        if payload is not None:
            buffer.write(payload)
        self._live[address] = buffer
        history.append(buffer)
        if aligned > _LARGE_THRESHOLD:
            if address not in self._large_live:
                self._large_starts = None
            self._large_live[address] = buffer
        return buffer

    def map_fixed(self, address: int, size: int, tag: str = "",
                  pool: str = "default",
                  payload: Optional[np.ndarray] = None) -> Buffer:
        """Map a buffer at a *fixed* address (CRIU-style snapshot restore).

        Checkpoint/restore systems reconstruct an address space verbatim so
        raw pointers inside driver objects stay valid; this is the primitive
        that makes the §9 baseline implementable.  The address must not
        overlap any live allocation.  Blocks that were cudaFree'd into the
        mapped range leave the free lists, so no later allocation is handed
        memory that overlaps the mapping.
        """
        if address % ALIGNMENT:
            raise InvalidValueError(
                f"fixed mapping at unaligned address 0x{address:x}")
        aligned = _align(size)
        if self.bytes_in_use + aligned > self.capacity_bytes:
            raise OutOfMemoryError(
                f"device OOM mapping 0x{address:x} (+{aligned})")
        for live in self._live.values():
            if address < live.end and live.address < address + aligned:
                raise IllegalMemoryAccessError(
                    f"fixed mapping 0x{address:x}..+{aligned} overlaps live "
                    f"buffer 0x{live.address:x}..+{live.size}")
        self._forget_free_blocks(address, address + aligned)
        buffer = Buffer(address=address, size=aligned,
                        alloc_index=len(self._history), tag=tag, pool=pool)
        if payload is not None:
            buffer.write(payload)
        self._live[address] = buffer
        self._history.append(buffer)
        if aligned > _LARGE_THRESHOLD:
            self._large_live[address] = buffer
            self._large_starts = None
        self.bytes_in_use += aligned
        self.peak_bytes = max(self.peak_bytes, self.bytes_in_use)
        self._cursor = max(self._cursor, address + aligned)
        return buffer

    def is_live(self, address: int) -> bool:
        """Whether ``address`` resolves and is not sitting on a free list."""
        return address in self._live and address not in self._pending

    def reset_peak(self) -> None:
        """Collapse the high-water mark to current usage.

        Used after rolling back an aborted restore replay: the leaked
        allocations are gone, and profiling-based KV sizing (which reads
        ``peak_bytes``) must not keep charging for them.
        """
        self.peak_bytes = self.bytes_in_use

    def free(self, address: int) -> None:
        """``cudaFree``: return memory to the driver.

        The payload is poisoned and the address stops resolving — a graph
        that still references it faults on replay (the hazard PyTorch avoids
        by never cudaFree-ing capture-referenced memory, §2.2).
        """
        buffer = self._live.get(address)
        if buffer is None or address in self._pending:
            raise IllegalMemoryAccessError(
                f"cudaFree of unknown or already-freed address 0x{address:x}")
        del self._live[address]
        buffer.live = False
        if buffer.payload is not None:
            buffer.payload = np.full_like(buffer.payload, POISON_VALUE)
        self._free_lists.setdefault((buffer.pool, buffer.size), []).append(
            (address, False, None))
        self._pending.add(address)
        self._unindex_large(address)
        self.bytes_in_use -= buffer.size

    def pool_free(self, address: int) -> None:
        """Caching-allocator free (the PyTorch CUDA allocator's ``free``).

        The block returns to the allocator's free list for LIFO reuse, but
        the memory stays mapped: the buffer keeps resolving and its stale
        contents stay readable until another allocation claims the block.
        This is what makes replaying a graph whose "temporary" buffers were
        freed both possible and safe (paper §4.3) — and what creates the
        address-reuse false positives of Figure 6.
        """
        buffer = self._live.get(address)
        if buffer is None or address in self._pending:
            raise IllegalMemoryAccessError(
                f"pool free of unknown or already-freed address 0x{address:x}")
        self._free_lists.setdefault((buffer.pool, buffer.size), []).append(
            (address, True, buffer.payload))
        self._pending.add(address)

    def empty_cache(self) -> int:
        """``torch.cuda.empty_cache()``: cudaFree every cached free block.

        Pool-freed blocks are truly released (they stop resolving, their
        contents are poisoned, and the device's free memory grows); blocks
        that were already cudaFree'd simply leave the free lists.  Returns
        the number of bytes released.
        """
        released = 0
        for entries in self._free_lists.values():
            for address, pooled, _payload in entries:
                if not pooled:
                    continue
                buffer = self._live.pop(address, None)
                if buffer is None:
                    continue
                buffer.live = False
                self._unindex_large(address)
                if buffer.payload is not None:
                    buffer.payload = np.full_like(buffer.payload, POISON_VALUE)
                self.bytes_in_use -= buffer.size
                released += buffer.size
        self._free_lists.clear()
        self._pending.clear()
        return released

    def _unindex_large(self, address: int) -> None:
        if self._large_live.pop(address, None) is not None:
            self._large_starts = None

    def _forget_free_blocks(self, start: int, end: int) -> None:
        """Drop cudaFree'd free-list blocks overlapping ``[start, end)``."""
        for (_pool, size), entries in self._free_lists.items():
            kept = []
            for entry in entries:
                block, pooled, _payload = entry
                if not pooled and block < end and start < block + size:
                    self._pending.discard(block)
                else:
                    kept.append(entry)
            entries[:] = kept

    # -- lookups -------------------------------------------------------------

    def resolve(self, address: int) -> Buffer:
        """Map a raw pointer to the live buffer containing it.

        Pointers may land inside a buffer, not only at its start (§4.1:
        "matched when the addresses are identical or within the range of the
        allocated buffer").
        """
        buffer = self._live.get(address)
        if buffer is not None:
            return buffer
        # Live buffers never overlap, so the only large buffer that can
        # contain ``address`` is the one starting closest below it.
        starts = self._large_starts
        if starts is None:
            starts = self._large_starts = sorted(self._large_live)
        position = bisect.bisect_right(starts, address) - 1
        if position >= 0:
            candidate = self._large_live[starts[position]]
            if candidate.contains(address):
                return candidate
        for candidate in self._live.values():
            if candidate.contains(address):
                return candidate
        raise IllegalMemoryAccessError(
            f"pointer 0x{address:x} maps to no live allocation")

    def try_resolve(self, address: int) -> Optional[Buffer]:
        try:
            return self.resolve(address)
        except IllegalMemoryAccessError:
            return None

    def buffer_by_alloc_index(self, index: int) -> Buffer:
        """The buffer returned by the ``index``-th allocation of this process."""
        if not 0 <= index < len(self._history):
            raise InvalidValueError(
                f"allocation index {index} out of range "
                f"(process performed {len(self._history)} allocations)")
        return self._history[index]

    @property
    def live_buffers(self) -> Tuple[Buffer, ...]:
        return tuple(self._live.values())

    @property
    def history(self) -> Tuple[Buffer, ...]:
        return tuple(self._history)

    @property
    def num_allocations(self) -> int:
        return len(self._history)

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.bytes_in_use
