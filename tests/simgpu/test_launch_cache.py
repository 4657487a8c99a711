"""The driver's launch-ready cache must not relax any capture rule.

After a kernel's first launch finds its library initialized and its module
loaded, later launches take its address from ``CudaDriver.launch_ready``.
That cache is per process, and it never covers magic-workspace setup,
which ``reset_magic_workspaces`` can undo.
"""

import pytest

from repro.errors import CaptureViolationError, SymbolNotFoundError

from tests.simgpu.helpers import (
    launch_add,
    launch_gemm_magic,
    launch_norm,
    params_for,
    rand_payload,
)

GEMM_MAGIC = "_ZN7cublas_sim4gemmEv"
GEMM_PLAIN = "_ZN7cublas_sim10gemm_plainEv"
COPY = "_Z11copy_kernelPfS_"


def alloc(process, seed=None):
    payload = rand_payload(seed) if seed is not None else None
    return process.malloc(128, tag="act", payload=payload)


def warm_up_every_kernel(process):
    """Launch each kernel of the small catalog once, eagerly."""
    x, w, out = alloc(process, 1), alloc(process, 2), alloc(process)
    launch_norm(process, x, w, out)
    launch_add(process, x, w, out)
    launch_gemm_magic(process, x, w, out)
    for name in (COPY, GEMM_PLAIN):
        spec = process.catalog.kernel(name)
        process.launch(spec, params_for(spec, {
            "input": x.address, "weight": w.address,
            "output": out.address}))
    return x, w, out


class TestCacheIsPerProcess:
    def test_warm_process_caches_every_kernel(self, process):
        warm_up_every_kernel(process)
        names = {spec.name for library in process.catalog.libraries()
                 for spec in library.iter_kernels()}
        assert set(process.driver.launch_ready) == names

    def test_cold_process_still_violates_library_init(self, process_factory):
        warm_up_every_kernel(process_factory(1, name="a"))
        cold = process_factory(2, name="b")
        assert not cold.driver.launch_ready
        x, w, out = alloc(cold, 1), alloc(cold, 2), alloc(cold)
        cold.default_stream.begin_capture()
        with pytest.raises(CaptureViolationError, match="initializes"):
            launch_gemm_magic(cold, x, w, out)
        assert not cold.default_stream.is_capturing
        assert GEMM_MAGIC not in cold.driver.launch_ready

    def test_cold_process_still_violates_module_load(self, process_factory):
        warm_up_every_kernel(process_factory(1, name="a"))
        cold = process_factory(2, name="b")
        x, w, out = alloc(cold, 1), alloc(cold, 2), alloc(cold)
        cold.default_stream.begin_capture()
        with pytest.raises(CaptureViolationError, match="loads it"):
            launch_norm(cold, x, w, out)
        assert not cold.default_stream.is_capturing
        assert not cold.driver.launch_ready

    def test_warm_process_captures(self, process):
        x, w, out = warm_up_every_kernel(process)
        process.default_stream.begin_capture()
        launch_norm(process, x, w, out)
        launch_gemm_magic(process, x, w, out)
        assert process.default_stream.end_capture().num_nodes == 2


class TestMagicSetupStaysPerLaunch:
    def test_reset_reruns_setup_on_eager_launch(self, process):
        x, w, out = warm_up_every_kernel(process)
        process.reset_magic_workspaces()
        assert not process.has_magic(GEMM_MAGIC)
        before = process.allocator.num_allocations
        launch_gemm_magic(process, x, w, out)
        assert process.has_magic(GEMM_MAGIC)
        # setup_magic allocated the two 4-byte workspace buffers again.
        assert process.allocator.num_allocations == before + 2

    def test_reset_then_capture_raises(self, process):
        x, w, out = warm_up_every_kernel(process)
        process.reset_magic_workspaces()
        assert GEMM_MAGIC in process.driver.launch_ready
        process.default_stream.begin_capture()
        with pytest.raises(CaptureViolationError, match="workspace setup"):
            launch_gemm_magic(process, x, w, out)
        assert not process.default_stream.is_capturing


class TestModuleIndexLookups:
    @pytest.mark.parametrize("name", ["_Z7no_suchv", GEMM_MAGIC])
    def test_unknown_kernel_raises(self, catalog, name):
        # GEMM_MAGIC exists, but in another library.
        library = catalog.library("libtorch_sim")
        with pytest.raises(SymbolNotFoundError):
            library.module_of(name)
        with pytest.raises(SymbolNotFoundError):
            library.find_kernel(name)

    def test_known_kernel_resolves(self, catalog):
        library = catalog.library("libcublas_sim")
        assert library.module_of(GEMM_PLAIN).name == "mod_gemm"
        assert library.find_kernel(GEMM_PLAIN).name == GEMM_PLAIN
