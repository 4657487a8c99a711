"""Fixed-address mapping tests (the checkpoint-restore primitive)."""

import numpy as np
import pytest

from repro.errors import (
    IllegalMemoryAccessError,
    InvalidValueError,
    OutOfMemoryError,
)
from repro.simgpu.memory import ALIGNMENT, DeviceAllocator

BASE = 0x7F00_0000_0000


def make_allocator(capacity=1 << 20):
    return DeviceAllocator(base=BASE, capacity_bytes=capacity)


class TestMapFixed:
    def test_maps_at_exact_address(self):
        allocator = make_allocator()
        buffer = allocator.map_fixed(BASE + 0x1000, 512, tag="restored")
        assert buffer.address == BASE + 0x1000
        assert allocator.resolve(BASE + 0x1000) is buffer

    def test_payload_restored(self):
        allocator = make_allocator()
        buffer = allocator.map_fixed(BASE, 256, payload=np.ones((2, 2)))
        np.testing.assert_array_equal(buffer.read(), np.ones((2, 2)))

    def test_unaligned_address_rejected(self):
        allocator = make_allocator()
        with pytest.raises(InvalidValueError):
            allocator.map_fixed(BASE + 1, 256)

    def test_overlap_with_live_buffer_rejected(self):
        allocator = make_allocator()
        live = allocator.malloc(1024)
        with pytest.raises(IllegalMemoryAccessError):
            allocator.map_fixed(live.address, 256)
        with pytest.raises(IllegalMemoryAccessError):
            allocator.map_fixed(live.address + ALIGNMENT, 256)

    def test_capacity_enforced(self):
        allocator = make_allocator(capacity=1024)
        with pytest.raises(OutOfMemoryError):
            allocator.map_fixed(BASE, 4096)

    def test_cursor_moves_past_mapping(self):
        """Subsequent bump allocations never collide with mapped regions."""
        allocator = make_allocator()
        mapped = allocator.map_fixed(BASE + 0x2000, 512)
        fresh = allocator.malloc(256)
        assert fresh.address >= mapped.end

    def test_accounting_includes_mapping(self):
        allocator = make_allocator()
        allocator.map_fixed(BASE, 512)
        assert allocator.bytes_in_use == 512

    def test_mapping_over_freed_block_is_never_reallocated(self):
        """A cudaFree'd block under a fixed mapping leaves the free list,
        so the next same-size malloc cannot overlap the mapping."""
        allocator = make_allocator()
        freed = allocator.malloc(4096)
        allocator.free(freed.address)
        mapped = allocator.map_fixed(freed.address + ALIGNMENT, 256)
        fresh = allocator.malloc(4096)
        assert fresh.address >= mapped.end
        assert allocator.is_live(mapped.address)
        assert allocator.resolve(mapped.address) is mapped


class TestAslrDeterminism:
    def test_library_bases_independent_of_dlopen_order(self, catalog):
        from repro.simgpu.process import CudaProcess
        first = CudaProcess(seed=5, catalog=catalog, name="same")
        second = CudaProcess(seed=5, catalog=catalog, name="same")
        first.driver.dlopen("libtorch_sim")
        first.driver.dlopen("libcublas_sim")
        second.driver.dlopen("libcublas_sim")   # reversed order
        second.driver.dlopen("libtorch_sim")
        for name in ("_Z9layernormPfS_S_i", "_ZN7cublas_sim4gemmEv"):
            assert first.driver.kernel_address(name) == \
                second.driver.kernel_address(name)
