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
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import IllegalMemoryAccessError, InvalidValueError, OutOfMemoryError
from repro.simgpu import replay as _replay
from repro.utils.columns import IntColumn

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


def same_free_lists(first: Dict[Tuple[str, int], list],
                    second: Dict[Tuple[str, int], list]) -> bool:
    """Whether two :meth:`DeviceAllocator.free_list_copy` results hold the
    same entries in the same order, each carried payload the same
    object."""
    if first.keys() != second.keys():
        return False
    for key, entries in first.items():
        others = second[key]
        if len(entries) != len(others):
            return False
        for (address, pooled, payload), other in zip(entries, others):
            if (address != other[0] or pooled != other[1]
                    or payload is not other[2]):
                return False
    return True


class Replayed(NamedTuple):
    """The outcome of one :meth:`DeviceAllocator.replay` call."""

    end: int                  # one past the last row replayed
    stopped: bool             # the range ended at ``stop_alloc_index``
    addresses: np.ndarray     # alloc index -> base address (whole history)
    sizes: np.ndarray         # alloc index -> aligned size


class _ReplayBlock(NamedTuple):
    """The columns of one replay's allocations, from which their
    :class:`Buffer` objects are built when asked for."""

    first: int                # alloc index of the first one
    addresses: np.ndarray
    sizes: np.ndarray
    tag_ids: np.ndarray
    pool_ids: np.ndarray
    tags: List[str]
    pools: List[str]
    sources: np.ndarray       # carried payload id, -1 for None
    payloads: List[object]
    poisoned: np.ndarray      # released by a cudaFree or empty_cache

    def buffer(self, position: int, live: bool) -> Buffer:
        source = int(self.sources[position])
        payload = self.payloads[source] if source >= 0 else None
        if payload is not None and self.poisoned[position]:
            payload = np.full_like(payload, POISON_VALUE)
        return Buffer(int(self.addresses[position]),
                      int(self.sizes[position]), self.first + position,
                      self.tags[self.tag_ids[position]],
                      self.pools[self.pool_ids[position]], payload, live)


class DeviceAllocator:
    """cudaMalloc/cudaFree over a randomized heap with LIFO reuse.

    ``base`` is the randomized heap start supplied by the owning process.
    The allocator is a bump allocator with per-size free lists; freeing and
    re-allocating the same size returns the most recently freed address,
    exactly the aliasing behaviour the paper's Figure 6 illustrates.

    The allocator keeps no event log of its own: the replayable
    (de)allocation sequence (§4.2) is the trace a
    :class:`repro.core.interception.TraceInterceptor` records on the owning
    process.  Live allocations go through the scalar ``malloc`` /
    ``free`` / ``pool_free`` / ``empty_cache``; a recorded sequence goes
    through :meth:`replay`, one array solve for a whole row range
    (:mod:`repro.simgpu.replay`).  A replay builds :class:`Buffer` objects
    only for the blocks it leaves live; the others are built from its
    columns when ``buffer_by_alloc_index`` or ``history`` asks for them.
    """

    def __init__(self, base: int, capacity_bytes: int):
        if base % ALIGNMENT:
            raise InvalidValueError(f"heap base 0x{base:x} is not aligned")
        self.base = base
        self.capacity_bytes = capacity_bytes
        self._cursor = base
        self._free_lists: Dict[int, List[int]] = {}
        self._live: Dict[int, Buffer] = {}
        #: every buffer ever allocated; position == alloc index.  None
        #: marks a replayed buffer not built yet (see ``_blocks``).
        self._history: List[Optional[Buffer]] = []
        self._unbuilt = 0
        self._blocks: List[_ReplayBlock] = []
        self._block_starts: List[int] = []
        #: alloc index -> address / size, for the first ``len`` indices
        self._index_address = IntColumn()
        self._index_size = IntColumn()
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

    def replay(self, table, start: int = 0, stop: Optional[int] = None,
               stop_alloc_index: Optional[int] = None) -> Replayed:
        """Replay rows ``[start, stop)`` of a recorded (de)allocation
        table in one array solve (paper §4.2).

        ``table`` is a :class:`~repro.core.binfmt.ReplayTable` (its
        ``kind``, ``alloc_index``, ``size``, ``pooled``, ``tag_id`` and
        ``pool_id`` columns and ``tags``/``pools`` string tables).  The
        range also ends after the first allocation row recording
        ``stop_alloc_index``.  An allocation row is ``malloc(size, tag,
        pool)`` and must come back as the index it records; a free row
        ``pool_free``s or ``free``s the block of the allocation it names;
        any other kind is ``empty_cache``.  The allocator ends in exactly
        the state those calls leave, one by one.

        An invalid row raises what the row-by-row replay raises, with the
        state of the rows before it applied (a drifted allocation is
        made, then reported); the error carries the row as
        ``replay_row``.
        """
        total = len(table.kind)
        stop = total if stop is None else min(stop, total)
        if stop <= start:
            return Replayed(start, False, *self._index_columns())
        stopped = False
        if stop_alloc_index is not None:
            hits = np.flatnonzero(
                (table.kind[start:stop] == _replay.ALLOC)
                & (table.alloc_index[start:stop] == stop_alloc_index))
            if hits.size:
                stop, stopped = start + int(hits[0]) + 1, True
        # A size the solve does not take (non-positive, or more than the
        # whole device) fails before its row changes any state.
        sizes = table.size[start:stop]
        bad_size = np.flatnonzero(
            (table.kind[start:stop] == _replay.ALLOC)
            & ((sizes <= 0) | (sizes > self.capacity_bytes)))
        limit = start + int(bad_size[0]) if bad_size.size else stop
        solution = self._solve(table, start, limit)
        error = solution.error
        if error is not None:
            row = start + solution.error_row
            if row > start:
                self._apply_rows(table, start, self._solve(table, start, row))
            if solution.rows > solution.error_row:
                # A drifted allocation is made, then reported.
                self.malloc(int(table.size[row]),
                            tag=table.tags[table.tag_id[row]],
                            pool=table.pools[table.pool_id[row]])
        else:
            self._apply_rows(table, start, solution)
            if limit < stop:
                row = limit
                size = int(table.size[row])
                error = InvalidValueError(
                    f"cudaMalloc of non-positive size {size}") if size <= 0 \
                    else OutOfMemoryError(
                        f"device OOM: in use {self.bytes_in_use} + request "
                        f"{_align(size)} > capacity {self.capacity_bytes}")
        if error is not None:
            error.replay_row = row
            raise error
        return Replayed(stop, stopped, *self._index_columns())

    def _index_newer(self) -> None:
        """Extend the alloc index -> address / size columns to the whole
        history (the allocations made since the last block are scalar,
        so all built)."""
        newer = self._history[len(self._index_address):]
        if newer:
            self._index_address.pending.extend([b.address for b in newer])
            self._index_size.pending.extend([b.size for b in newer])

    def _index_columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """The alloc index -> address / size columns (read-only)."""
        self._index_newer()
        return self._index_address.array(), self._index_size.array()

    def _solve(self, table, start: int, stop: int) -> _replay.Solution:
        return _replay.solve(
            table, start, stop, alignment=ALIGNMENT,
            next_index=len(self._history),
            cursor=self._cursor, in_use=self.bytes_in_use,
            capacity=self.capacity_bytes,
            index_address=self._index_columns()[0], live=self._live,
            free_lists=self._free_lists)

    def stamp(self, block, free_lists: Dict[Tuple[str, int], list]) -> None:
        """Make the allocations and pool frees of stamped forwarding
        layers (a :class:`repro.simgpu.process.EventBlock`) in one step.

        Each allocation reuses a pool-freed block, so the cursor and the
        bytes in use stay, and the free lists end as ``free_lists`` (a
        :meth:`free_list_copy` taken after the layer the last stamped
        one repeats).  The last allocation of each address owns it at
        the end; the owner it supersedes stops being live.
        """
        addresses = block.address
        count = addresses.size
        touched, last = np.unique(addresses[::-1], return_index=True)
        live = np.zeros(count, dtype=bool)
        live[count - 1 - last] = True
        self._index_newer()
        self._apply(_replay.Solution(
            rows=count, error_row=None, error=None, addresses=addresses,
            sizes=block.size, live=live,
            poisoned=np.zeros(count, dtype=bool),
            sources=block.payload_ids, payloads=block.payloads,
            dead_owners=touched.tolist(), poisoned_owners=[],
            free_lists={key: list(entries)
                        for key, entries in free_lists.items()},
            cursor=self._cursor, in_use=self.bytes_in_use,
            peak=self.bytes_in_use),
            np.zeros(count, dtype=np.int64), np.zeros(count, dtype=np.int64),
            [block.tag], [block.pool])

    def free_list_copy(self) -> Dict[Tuple[str, int], list]:
        """The free lists as they are now (entries are immutable)."""
        return {key: list(entries)
                for key, entries in self._free_lists.items()}

    def _apply_rows(self, table, start: int,
                    solution: _replay.Solution) -> None:
        """Apply ``solution`` of ``table``'s rows from ``start``."""
        rows = start + np.flatnonzero(
            table.kind[start:start + solution.rows] == _replay.ALLOC)
        self._apply(solution, table.tag_id[rows], table.pool_id[rows],
                    table.tags, table.pools)

    def _apply(self, solution: _replay.Solution, tag_ids: np.ndarray,
               pool_ids: np.ndarray, tags: List[str],
               pools: List[str]) -> None:
        """Make ``solution``, solved from the current state, the state;
        ``tag_ids``/``pool_ids`` name each new allocation's strings."""
        history = self._history
        first = len(history)
        count = solution.addresses.size
        block = _ReplayBlock(first, solution.addresses, solution.sizes,
                             tag_ids, pool_ids, tags, pools,
                             solution.sources, solution.payloads,
                             solution.poisoned)
        history.extend([None] * count)
        built = [block.buffer(position, live=True)
                 for position in np.flatnonzero(solution.live).tolist()]
        self._unbuilt += count - len(built)
        live, large = self._live, self._large_live
        poisoned = set(solution.poisoned_owners)
        for address in solution.dead_owners:
            owner = live.pop(address)
            owner.live = False
            if address in poisoned and owner.payload is not None:
                owner.payload = np.full_like(owner.payload, POISON_VALUE)
            large.pop(address, None)
        for buffer in built:
            history[buffer.alloc_index] = buffer
            live[buffer.address] = buffer
            if buffer.size > _LARGE_THRESHOLD:
                large[buffer.address] = buffer
        self._large_starts = None
        self._free_lists.clear()
        self._free_lists.update(solution.free_lists)
        self._pending = {entry[0] for entries in solution.free_lists.values()
                         for entry in entries}
        self._cursor = solution.cursor
        self.bytes_in_use = solution.in_use
        if count:
            self.peak_bytes = max(self.peak_bytes, solution.peak)
            self._blocks.append(block)
            self._block_starts.append(first)
        self._index_address.add(solution.addresses)
        self._index_size.add(solution.sizes)

    def _build(self, index: int) -> Buffer:
        """Build the replayed buffer at ``index`` (no longer live)."""
        block = self._blocks[bisect.bisect_right(self._block_starts,
                                                 index) - 1]
        buffer = block.buffer(index - block.first, live=False)
        self._history[index] = buffer
        self._unbuilt -= 1
        return buffer

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

    def buffer_by_alloc_index(self, index: int) -> Buffer:
        """The buffer returned by the ``index``-th allocation of this process."""
        if not 0 <= index < len(self._history):
            raise InvalidValueError(
                f"allocation index {index} out of range "
                f"(process performed {len(self._history)} allocations)")
        buffer = self._history[index]
        return buffer if buffer is not None else self._build(index)

    @property
    def live_buffers(self) -> Tuple[Buffer, ...]:
        return tuple(self._live.values())

    @property
    def history(self) -> Tuple[Buffer, ...]:
        if self._unbuilt:
            for index, buffer in enumerate(self._history):
                if buffer is None:
                    self._build(index)
        return tuple(self._history)

    @property
    def buffers_built(self) -> int:
        """How many :class:`Buffer` objects this allocator has built."""
        return len(self._history) - self._unbuilt

    @property
    def num_allocations(self) -> int:
        return len(self._history)
