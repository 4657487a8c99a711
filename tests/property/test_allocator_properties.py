"""Property-based tests of the device allocator (hypothesis).

These pin the invariants DESIGN.md §6 lists: live buffers never overlap,
accounting never exceeds capacity, LIFO reuse, and replaying any recorded
event sequence on a fresh allocator reproduces the same relative layout.
"""

from typing import List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.interception import attach
from repro.core.trace import (
    AllocTraceEvent,
    EmptyCacheTraceEvent,
    FreeTraceEvent,
)
from repro.errors import IllegalMemoryAccessError, OutOfMemoryError
from repro.simgpu.costmodel import CostModel, GpuProperties
from repro.simgpu.memory import ALIGNMENT, DeviceAllocator
from repro.simgpu.process import CudaProcess

from tests.conftest import make_small_catalog

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
