"""Property-based tests of the device allocator (hypothesis).

These pin the invariants DESIGN.md §6 lists: live buffers never overlap,
accounting never exceeds capacity, LIFO reuse, and replaying any recorded
event sequence on a fresh allocator reproduces the same relative layout.
``TestArrayReplay`` pins ``DeviceAllocator.replay`` (one array solve per
row range) to the same rows made as scalar calls.
"""

from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.binfmt import ReplayTable
from repro.core.interception import attach
from repro.core.trace import (
    AllocTraceEvent,
    EmptyCacheTraceEvent,
    FreeTraceEvent,
)
from repro.errors import (
    IllegalMemoryAccessError,
    InvalidValueError,
    OutOfMemoryError,
    ReproError,
    RestorationError,
)
from repro.simgpu.costmodel import CostModel, GpuProperties
from repro.simgpu.memory import ALIGNMENT, DeviceAllocator
from repro.simgpu.process import CudaProcess

from tests.conftest import make_small_catalog
from tests.core.test_restore_goldens import allocator_digest

CAPACITY = 1 << 22          # 4 MiB keeps examples fast

# An operation program: alloc(size) | free(k) | pool_free(k) | empty_cache,
# where k picks among currently live allocations.
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), st.integers(1, 8192)),
        st.tuples(st.just("free"), st.integers(0, 30)),
        st.tuples(st.just("pool_free"), st.integers(0, 30)),
        st.tuples(st.just("empty_cache"), st.just(0)),
    ),
    max_size=60,
)


def _run_program(allocator, program) -> List[int]:
    """Apply a program, skipping infeasible steps; returns live addresses.

    ``allocator`` is a :class:`DeviceAllocator` or a :class:`CudaProcess`
    (same malloc/free/pool_free/empty_cache calls)."""
    live: List[int] = []
    for op, arg in program:
        if op == "alloc":
            try:
                buffer = allocator.malloc(arg, tag="t")
            except OutOfMemoryError:
                continue
            live.append(buffer.address)
        elif op in ("free", "pool_free") and live:
            address = live.pop(arg % len(live))
            try:
                getattr(allocator, op)(address)
            except IllegalMemoryAccessError:
                pass
        elif op == "empty_cache":
            allocator.empty_cache()
    return live


class TestAllocatorInvariants:
    @settings(max_examples=120, deadline=None)
    @given(program=_ops)
    def test_live_buffers_never_overlap(self, program):
        allocator = DeviceAllocator(base=0x7F00_0000_0000,
                                    capacity_bytes=CAPACITY)
        _run_program(allocator, program)
        spans = sorted((b.address, b.end) for b in allocator.live_buffers)
        for (start_a, end_a), (start_b, _end_b) in zip(spans, spans[1:]):
            assert end_a <= start_b

    @settings(max_examples=120, deadline=None)
    @given(program=_ops)
    def test_accounting_within_capacity(self, program):
        allocator = DeviceAllocator(base=0x7F00_0000_0000,
                                    capacity_bytes=CAPACITY)
        _run_program(allocator, program)
        assert 0 <= allocator.bytes_in_use <= CAPACITY
        assert allocator.peak_bytes <= CAPACITY
        assert allocator.bytes_in_use <= allocator.peak_bytes

    @settings(max_examples=120, deadline=None)
    @given(program=_ops)
    def test_alloc_indices_strictly_increase(self, program):
        allocator = DeviceAllocator(base=0x7F00_0000_0000,
                                    capacity_bytes=CAPACITY)
        _run_program(allocator, program)
        indices = [b.alloc_index for b in allocator.history]
        assert indices == sorted(indices)
        assert len(set(indices)) == len(indices)

    @settings(max_examples=100, deadline=None)
    @given(program=_ops)
    def test_resolve_finds_every_live_buffer(self, program):
        allocator = DeviceAllocator(base=0x7F00_0000_0000,
                                    capacity_bytes=CAPACITY)
        live = _run_program(allocator, program)
        for address in live:
            # Superseded addresses resolve to their newest owner.
            assert allocator.resolve(address).address <= address

    @settings(max_examples=100, deadline=None)
    @given(program=_ops)
    def test_replay_reproduces_relative_layout(self, program):
        """The §4.2 property: replaying the sequence a TraceInterceptor
        records on one process on a fresh allocator (different base)
        reproduces every address *offset* and the same alloc-index
        aliasing structure."""
        process = CudaProcess(
            seed=11, catalog=make_small_catalog(),
            cost_model=CostModel(gpu=GpuProperties(
                name="Prop-GPU", total_memory_bytes=CAPACITY)))
        tracer = attach(process)
        _run_program(process, program)
        first = process.allocator
        second = DeviceAllocator(base=0x7E00_0000_0000,
                                 capacity_bytes=CAPACITY)
        index_to_addr = {}
        for event in tracer.trace.events:
            if isinstance(event, AllocTraceEvent):
                buffer = second.malloc(event.size, tag=event.tag,
                                       pool=event.pool)
                assert buffer.alloc_index == event.alloc_index
                index_to_addr[event.alloc_index] = buffer.address
            elif isinstance(event, FreeTraceEvent):
                address = index_to_addr[event.alloc_index]
                if event.pooled:
                    second.pool_free(address)
                else:
                    second.free(address)
            elif isinstance(event, EmptyCacheTraceEvent):
                second.empty_cache()
        for event in tracer.trace.events:
            if isinstance(event, AllocTraceEvent):
                assert (event.address - first.base
                        == index_to_addr[event.alloc_index] - second.base)


class TestLifoProperty:
    @settings(max_examples=60, deadline=None)
    @given(size=st.integers(1, 4096))
    def test_pool_free_then_alloc_same_size_reuses(self, size):
        allocator = DeviceAllocator(base=0x7F00_0000_0000,
                                    capacity_bytes=CAPACITY)
        first = allocator.malloc(size)
        allocator.pool_free(first.address)
        second = allocator.malloc(size)
        assert second.address == first.address

    @settings(max_examples=60, deadline=None)
    @given(size_a=st.integers(1, 2048), size_b=st.integers(2049, 4096))
    def test_different_bucket_no_reuse(self, size_a, size_b):
        allocator = DeviceAllocator(base=0x7F00_0000_0000,
                                    capacity_bytes=CAPACITY)
        first = allocator.malloc(size_a)
        allocator.pool_free(first.address)
        if (size_a + ALIGNMENT - 1) // ALIGNMENT == \
                (size_b + ALIGNMENT - 1) // ALIGNMENT:
            return   # same bucket after alignment: reuse is legal
        second = allocator.malloc(size_b)
        assert second.address != first.address


# ---------------------------------------------------------------------------
# The array replay against the step-by-step allocator
# ---------------------------------------------------------------------------

REPLAY_CAPACITY = 24 * 1024       # small: long programs run out of memory
_POOLS = ("default", "graph", "side")
_TAGS = ("a", "b")

# A starting state: scalar calls on a fresh allocator (payloads on odd
# sizes), leaving live buffers and both kinds of free-list entries.
_setup_ops = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), st.integers(1, 2048),
                  st.sampled_from(_POOLS)),
        st.tuples(st.sampled_from(["free", "pool_free"]),
                  st.integers(0, 30), st.just("")),
    ),
    max_size=20,
)
# The recorded rows: allocations come back as the next index, frees name
# a block still held (picked by position), and ``corrupt`` breaks one row.
_row_ops = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), st.integers(1, 2048),
                  st.sampled_from(_POOLS), st.sampled_from(_TAGS)),
        st.tuples(st.sampled_from(["free", "pool_free"]),
                  st.integers(0, 30), st.just(""), st.just("")),
        st.tuples(st.just("empty_cache"), st.just(0), st.just(""),
                  st.just("")),
    ),
    max_size=60,
)
_corruptions = st.one_of(
    st.none(),
    st.tuples(st.sampled_from(["double_free", "unknown", "future", "drift",
                               "zero_size", "huge_size"]),
              st.integers(0, 59)),
)


def _start_state(setup) -> DeviceAllocator:
    allocator = DeviceAllocator(base=0x7F00_0000_0000,
                                capacity_bytes=REPLAY_CAPACITY)
    held: List[int] = []
    for op, arg, pool in setup:
        if op == "alloc":
            payload = np.full((2, 2), float(arg)) if arg % 2 else None
            try:
                held.append(allocator.malloc(arg, tag="s", pool=pool,
                                             payload=payload).address)
            except OutOfMemoryError:
                pass
        elif held:
            getattr(allocator, op)(held.pop(arg % len(held)))
    return allocator


def _replay_table(allocator, ops, corrupt) -> ReplayTable:
    """Rows recorded as if from a run on ``allocator``'s state."""
    held = [b.alloc_index for b in allocator.live_buffers
            if allocator.is_live(b.address)]
    next_index = allocator.num_allocations
    rows = []
    for op, arg, pool, tag in ops:
        if op == "alloc":
            rows.append([0, next_index, arg, 0, _TAGS.index(tag),
                         _POOLS.index(pool)])
            held.append(next_index)
            next_index += 1
        elif op in ("free", "pool_free") and held:
            rows.append([1, held.pop(arg % len(held)), 0,
                         int(op == "pool_free"), 0, 0])
        elif op == "empty_cache":
            rows.append([2, 0, 0, 0, 0, 0])
    if corrupt is not None and rows:
        how, position = corrupt
        row = rows[position % len(rows)]
        frees = [r for r in rows[:position % len(rows)] if r[0] == 1]
        if how == "double_free" and frees:
            row[:] = list(frees[-1])
        elif how == "unknown":
            row[:] = [1, -1 if position % 2 else next_index + 5, 0, 1, 0, 0]
        elif how == "future":
            row[:] = [1, next_index, 0, 0, 0, 0]
        elif row[0] == 0 and how == "drift":
            row[1] += 1
        elif row[0] == 0 and how == "zero_size":
            row[2] = -position % 3
        elif row[0] == 0 and how == "huge_size":
            row[2] = 2 * REPLAY_CAPACITY
    columns = np.array(rows, dtype=np.int64).reshape(-1, 6).T
    return ReplayTable(columns[0].astype(np.int8), columns[1], columns[2],
                       columns[3].astype(np.int8),
                       columns[4].astype(np.int16),
                       columns[5].astype(np.int8), list(_TAGS), list(_POOLS))


def _scalar_replay(allocator, table, start, stop=None,
                   stop_alloc_index=None):
    """The row-by-row replay: what ``DeviceAllocator.replay`` must equal.

    Returns ``(end, stopped)``; an error carries its row as
    ``replay_row``."""
    stop = len(table) if stop is None else min(stop, len(table))
    for row in range(start, stop):
        kind = int(table.kind[row])
        index = int(table.alloc_index[row])
        try:
            if kind == 0:
                buffer = allocator.malloc(
                    int(table.size[row]), tag=table.tags[table.tag_id[row]],
                    pool=table.pools[table.pool_id[row]])
                if buffer.alloc_index != index:
                    raise RestorationError(
                        f"replay drift: allocation came back as index "
                        f"{buffer.alloc_index}, artifact expects {index}")
                if index == stop_alloc_index:
                    return row + 1, True
            elif kind == 1:
                if not 0 <= index < allocator.num_allocations:
                    raise RestorationError(
                        f"indirect index {index} points outside the "
                        f"replayed allocation sequence")
                address = allocator.buffer_by_alloc_index(index).address
                if table.pooled[row]:
                    allocator.pool_free(address)
                else:
                    allocator.free(address)
            else:
                allocator.empty_cache()
        except ReproError as exc:
            exc.replay_row = row
            raise
    return stop, False


def _payload(payload):
    # Bytes, so that poisoned (NaN) payloads compare equal.
    return None if payload is None else (payload.shape, payload.tobytes())


def _state(allocator) -> dict:
    """Everything a replay may change, relative to the heap base."""
    base = allocator.base
    return {
        "digest": allocator_digest(allocator),
        "payloads": [_payload(b.payload) for b in allocator.history],
        "live": [(address - base, b.alloc_index)
                 for address, b in allocator._live.items()],
        "large": sorted((address - base, b.alloc_index)
                        for address, b in allocator._large_live.items()),
        "pending": sorted(address - base for address in allocator._pending),
        "entries": [[(address - base, pooled, _payload(payload))
                     for address, pooled, payload in entries]
                    for entries in allocator._free_lists.values()],
        "cursor": allocator._cursor - base,
        "bytes": (allocator.bytes_in_use, allocator.peak_bytes),
    }


def _outcome(allocator, calls, run) -> Tuple[list, dict]:
    """Replay ``calls`` of ``(stop, stop_alloc_index)`` through
    ``run(allocator, start, stop, stop_alloc_index)``, each from where the
    last ended, until one raises; returns the results and the state."""
    results, start = [], 0
    for stop, stop_alloc_index in calls:
        try:
            end, stopped = run(allocator, start, stop, stop_alloc_index)
        except ReproError as exc:
            results.append((type(exc), str(exc), exc.replay_row))
            break
        results.append((end, stopped))
        start = end
    return results, _state(allocator)


def _array_replay(table):
    def run(allocator, start, stop, stop_alloc_index):
        replayed = allocator.replay(table, start, stop, stop_alloc_index)
        assert np.array_equal(replayed.addresses,
                              [b.address for b in allocator.history])
        assert np.array_equal(replayed.sizes,
                              [b.size for b in allocator.history])
        return replayed.end, replayed.stopped
    return run


class TestArrayReplay:
    """``DeviceAllocator.replay`` ≡ the same rows as scalar calls: the same
    end state, or the same first error after the same prefix."""

    @settings(max_examples=300, deadline=None)
    @given(setup=_setup_ops, ops=_row_ops, corrupt=_corruptions,
           split=st.one_of(st.none(), st.integers(0, 70)),
           stop_at=st.one_of(st.none(), st.integers(0, 40)))
    def test_replay_matches_scalar_calls(self, setup, ops, corrupt, split,
                                         stop_at):
        """Two calls, as a restore makes them: up to ``split`` (or the
        ``stop_at``-th new allocation), then the rest."""
        start = _start_state(setup)
        table = _replay_table(start, ops, corrupt)
        if stop_at is not None:
            stop_at += start.num_allocations
        calls = [(split, stop_at), (None, None)]

        def scalar(allocator, start, stop, stop_alloc_index):
            return _scalar_replay(allocator, table, start, stop,
                                  stop_alloc_index)

        expected = _outcome(_start_state(setup), calls, scalar)
        assert _outcome(_start_state(setup), calls,
                        _array_replay(table)) == expected

    def test_dead_buffers_are_built_once_on_demand(self):
        allocator = _start_state([])
        table = _replay_table(allocator, [
            ("alloc", 300, "default", "a"), ("pool_free", 0, "", ""),
            ("alloc", 300, "default", "b")], None)
        allocator.replay(table)
        assert allocator.buffers_built == 1          # the live one only
        dead = allocator.buffer_by_alloc_index(0)
        assert allocator.buffer_by_alloc_index(0) is dead
        assert not dead.live and allocator.buffers_built == 2
        assert allocator.history[0] is dead

    def test_interceptor_attached_refuses_replay(self):
        process = CudaProcess(seed=3, catalog=make_small_catalog())
        attach(process)
        table = _replay_table(_start_state([]),
                              [("alloc", 300, "default", "a")], None)
        with pytest.raises(InvalidValueError, match="interceptor"):
            process.replay(table)
