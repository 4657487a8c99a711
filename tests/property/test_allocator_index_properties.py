"""Property test: the allocator's interior-pointer index matches a scan.

``DeviceAllocator.resolve`` answers interior pointers into large buffers
with a bisect over their sorted start addresses, which is exact only while
live buffers never overlap.  Random malloc/free/pool_free/empty_cache/
map_fixed programs mixing small and large (>64 KiB) sizes check, after
every step, that ``resolve`` agrees with a linear scan
over ``live_buffers`` for the base, an interior address, the last byte and
the first byte past every buffer ever allocated, plus unmapped addresses.
An interior pointer into a large buffer must be answered by the index
alone: one ``contains`` test, no fallback scan.
"""

from typing import Optional
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import IllegalMemoryAccessError, OutOfMemoryError
from repro.simgpu.memory import ALIGNMENT, Buffer, DeviceAllocator

BASE = 0x7F00_0000_0000
CAPACITY = 1 << 24          # 16 MiB
LARGE = 64 * 1024

# A few recurring sizes make freed blocks get reused (same size bucket).
_sizes = st.one_of(
    st.sampled_from([256, 4096, LARGE + 1, 2 * LARGE, 3 * LARGE + 100]),
    st.integers(1, 8192),
    st.integers(LARGE + 1, 4 * LARGE),
)
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("malloc"), _sizes),
        st.tuples(st.just("free"), st.integers(0, 40)),
        st.tuples(st.just("pool_free"), st.integers(0, 40)),
        st.tuples(st.just("empty_cache"), st.just(0)),
        # (buffer pick, aligned offset from it, size): lands on, inside or
        # next to a buffer allocated earlier, live or freed.
        st.tuples(st.just("map_fixed"),
                  st.tuples(st.integers(0, 40), st.integers(-4, 300),
                            _sizes)),
    ),
    max_size=30,
)


def _apply(allocator: DeviceAllocator, op: str, arg) -> None:
    """One program step; infeasible steps are no-ops."""
    live = allocator.live_buffers
    try:
        if op == "malloc":
            allocator.malloc(arg, tag="t")
        elif op in ("free", "pool_free") and live:
            getattr(allocator, op)(live[arg % len(live)].address)
        elif op == "empty_cache":
            allocator.empty_cache()
        elif op == "map_fixed":
            pick, offset, size = arg
            history = allocator.history
            anchor = history[pick % len(history)].address if history else BASE
            allocator.map_fixed(max(BASE, anchor + offset * ALIGNMENT), size,
                                tag="fixed")
    except (IllegalMemoryAccessError, OutOfMemoryError):
        pass


def _oracle(allocator: DeviceAllocator, address: int) -> Optional[Buffer]:
    hits = [b for b in allocator.live_buffers if b.contains(address)]
    assert len(hits) <= 1, f"live buffers overlap at 0x{address:x}"
    return hits[0] if hits else None


class _CountedContains:
    """A ``Buffer.contains`` stand-in that counts its calls."""

    def __init__(self):
        self.calls = 0

    def __get__(self, buffer, owner):
        def contains(address):
            self.calls += 1
            return buffer.address <= address < buffer.end
        return contains


def _probes(allocator: DeviceAllocator):
    yield BASE - 1
    for buffer in allocator.history:
        yield buffer.address
        yield buffer.address + buffer.size // 2
        yield buffer.end - 1
        yield buffer.end


@settings(max_examples=80, deadline=None)
@given(program=_steps)
def test_resolve_matches_linear_scan(program):
    allocator = DeviceAllocator(base=BASE, capacity_bytes=CAPACITY)
    for op, arg in program:
        _apply(allocator, op, arg)
        for address in _probes(allocator):
            expected = _oracle(allocator, address)
            if expected is None:
                with pytest.raises(IllegalMemoryAccessError):
                    allocator.resolve(address)
            else:
                with mock.patch.object(Buffer, "contains",
                                       _CountedContains()) as spy:
                    assert allocator.resolve(address) is expected
                if expected.size > LARGE and address != expected.address:
                    assert spy.calls == 1
