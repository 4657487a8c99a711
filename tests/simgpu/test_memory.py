"""Unit tests for the simulated device allocator."""

import numpy as np
import pytest

from repro.core.interception import attach
from repro.core.trace import AllocTraceEvent, FreeTraceEvent
from repro.errors import (
    IllegalMemoryAccessError,
    InvalidValueError,
    OutOfMemoryError,
)
from repro.simgpu.memory import ALIGNMENT, DeviceAllocator
from repro.simgpu.process import CudaProcess

from tests.conftest import make_small_catalog


def make_allocator(capacity=1 << 20):
    return DeviceAllocator(base=0x7F00_0000_0000, capacity_bytes=capacity)


def traced_process():
    """A process with a TraceInterceptor attached: the (de)allocation log
    Medusa's online phase replays (§4.2) is that interceptor's trace."""
    process = CudaProcess(seed=3, catalog=make_small_catalog())
    return process, attach(process)


class TestMalloc:
    def test_returns_aligned_addresses(self):
        allocator = make_allocator()
        buf = allocator.malloc(100)
        assert buf.address % ALIGNMENT == 0
        assert buf.size == ALIGNMENT  # rounded up

    def test_sequential_allocations_do_not_overlap(self):
        allocator = make_allocator()
        a = allocator.malloc(512)
        b = allocator.malloc(512)
        assert a.end <= b.address or b.end <= a.address

    def test_rejects_non_positive_size(self):
        allocator = make_allocator()
        with pytest.raises(InvalidValueError):
            allocator.malloc(0)
        with pytest.raises(InvalidValueError):
            allocator.malloc(-4)

    def test_oom_when_capacity_exceeded(self):
        allocator = make_allocator(capacity=1024)
        allocator.malloc(512)
        with pytest.raises(OutOfMemoryError):
            allocator.malloc(1024)

    def test_alloc_indices_are_sequential(self):
        allocator = make_allocator()
        buffers = [allocator.malloc(64) for _ in range(5)]
        assert [b.alloc_index for b in buffers] == [0, 1, 2, 3, 4]


class TestFreeAndReuse:
    def test_lifo_reuse_returns_same_address(self):
        """The aliasing hazard of Figure 6: free then realloc same size."""
        allocator = make_allocator()
        a = allocator.malloc(1024)
        address = a.address
        allocator.free(address)
        b = allocator.malloc(1024)
        assert b.address == address
        assert b.alloc_index != a.alloc_index

    def test_double_free_raises(self):
        allocator = make_allocator()
        buf = allocator.malloc(64)
        allocator.free(buf.address)
        with pytest.raises(IllegalMemoryAccessError):
            allocator.free(buf.address)

    def test_freed_payload_is_poisoned(self):
        allocator = make_allocator()
        buf = allocator.malloc(64, payload=np.ones((4, 4)))
        allocator.free(buf.address)
        assert np.isnan(buf.payload).all()

    def test_read_after_free_raises(self):
        allocator = make_allocator()
        buf = allocator.malloc(64, payload=np.ones((2, 2)))
        allocator.free(buf.address)
        with pytest.raises(IllegalMemoryAccessError):
            buf.read()

    def test_free_records_event_with_original_alloc_index(self):
        process, tracer = traced_process()
        process.malloc(64)
        buf = process.malloc(64)
        process.free(buf.address)
        free_events = [e for e in tracer.trace.events
                       if isinstance(e, FreeTraceEvent)]
        assert len(free_events) == 1
        assert free_events[0].alloc_index == buf.alloc_index == 1
        assert not free_events[0].pooled


class TestResolve:
    def test_resolve_exact_address(self):
        allocator = make_allocator()
        buf = allocator.malloc(256)
        assert allocator.resolve(buf.address) is buf

    def test_resolve_interior_pointer(self):
        """§4.1: pointers may land within a buffer's range."""
        allocator = make_allocator()
        buf = allocator.malloc(1024)
        assert allocator.resolve(buf.address + 512) is buf

    def test_resolve_unknown_address_raises(self):
        allocator = make_allocator()
        with pytest.raises(IllegalMemoryAccessError):
            allocator.resolve(0xDEADBEEF)

    def test_resolve_freed_address_raises(self):
        allocator = make_allocator()
        buf = allocator.malloc(64)
        allocator.free(buf.address)
        with pytest.raises(IllegalMemoryAccessError):
            allocator.resolve(buf.address)

    def test_buffer_by_alloc_index(self):
        allocator = make_allocator()
        first = allocator.malloc(64)
        second = allocator.malloc(128)
        assert allocator.buffer_by_alloc_index(0) is first
        assert allocator.buffer_by_alloc_index(1) is second
        with pytest.raises(InvalidValueError):
            allocator.buffer_by_alloc_index(2)

    def test_history_includes_freed_buffers(self):
        allocator = make_allocator()
        buf = allocator.malloc(64)
        allocator.free(buf.address)
        assert buf in allocator.history
        assert buf not in allocator.live_buffers


class TestEventSequence:
    def test_events_replayable_order(self):
        process, tracer = traced_process()
        a = process.malloc(64, tag="w")
        b = process.malloc(128, tag="x")
        process.free(a.address)
        c = process.malloc(64, tag="y")
        kinds = [("alloc", e.size, e.tag) if isinstance(e, AllocTraceEvent)
                 else ("free", e.alloc_index) for e in tracer.trace.events]
        assert kinds == [
            ("alloc", 256, "w"), ("alloc", 256, "x"),
            ("free", a.alloc_index), ("alloc", 256, "y"),
        ]
        # LIFO reuse: c got a's address, with a fresh alloc index.
        assert c.address == a.address
        assert c.alloc_index == 2
