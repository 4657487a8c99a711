"""Stream capture semantics: warm-up requirement, recording, replay."""

import numpy as np
import pytest

from repro.errors import CaptureViolationError, IllegalMemoryAccessError
from repro.simgpu.graph import GraphExecMeta
from repro.simgpu.process import ExecutionMode

from tests.simgpu.helpers import (
    launch_add,
    launch_gemm_magic,
    launch_norm,
    params_for,
    rand_payload,
)


def alloc(process, seed=None, tag="act"):
    payload = rand_payload(seed) if seed is not None else None
    return process.malloc(128, tag=tag, payload=payload)


class TestWarmUpRequirement:
    def test_capturing_uninitialized_library_fails(self, process):
        """First cuBLAS call inits the library -> sync -> capture violation."""
        x = alloc(process, 1)
        w = alloc(process, 2)
        out = alloc(process)
        process.default_stream.begin_capture()
        with pytest.raises(CaptureViolationError):
            launch_gemm_magic(process, x, w, out)
        assert not process.default_stream.is_capturing  # capture aborted

    def test_capturing_unloaded_module_fails(self, process):
        x = alloc(process, 1)
        w = alloc(process, 2)
        out = alloc(process)
        process.default_stream.begin_capture()
        with pytest.raises(CaptureViolationError):
            launch_norm(process, x, w, out)

    def test_capture_succeeds_after_warm_up(self, process):
        x = alloc(process, 1)
        w = alloc(process, 2)
        out = alloc(process)
        launch_norm(process, x, w, out)          # warm-up
        process.default_stream.begin_capture()
        launch_norm(process, x, w, out)
        graph = process.default_stream.end_capture()
        assert graph.num_nodes == 1

    def test_sync_during_capture_fails(self, process):
        process.default_stream.begin_capture()
        with pytest.raises(CaptureViolationError):
            process.synchronize()

    def test_nested_capture_fails(self, process):
        process.default_stream.begin_capture()
        with pytest.raises(CaptureViolationError):
            process.default_stream.begin_capture()

    def test_end_capture_without_begin_fails(self, process):
        with pytest.raises(CaptureViolationError):
            process.default_stream.end_capture()


class TestCapturedGraph:
    def _warmed_chain(self, process):
        """x --norm--> h --gemm--> y --add(x)--> out, all warmed up."""
        x = alloc(process, 1)
        w_norm = alloc(process, 2)
        w_gemm = alloc(process, 3)
        h = alloc(process)
        y = alloc(process)
        out = alloc(process)
        launch_norm(process, x, w_norm, h)
        launch_gemm_magic(process, h, w_gemm, y)
        launch_add(process, y, x, out)
        return x, w_norm, w_gemm, h, y, out

    def test_capture_records_kernels_not_executes(self, process):
        x, w_norm, w_gemm, h, y, out = self._warmed_chain(process)
        h.payload = None  # wipe intermediate
        process.default_stream.begin_capture()
        launch_norm(process, x, w_norm, h)
        graph = process.default_stream.end_capture()
        assert graph.num_nodes == 1
        assert h.payload is None  # capture did not execute the kernel

    def test_capture_records_dependencies(self, process):
        x, w_norm, w_gemm, h, y, out = self._warmed_chain(process)
        process.default_stream.begin_capture()
        launch_norm(process, x, w_norm, h)
        launch_gemm_magic(process, h, w_gemm, y)
        launch_add(process, y, x, out)
        graph = process.default_stream.end_capture()
        assert graph.num_nodes == 3
        edges = graph.columns.edges.tolist()
        assert [0, 1] in edges  # h produced by 0, consumed by 1
        assert [1, 2] in edges  # y produced by 1, consumed by 2

    def test_replay_matches_eager_output(self, process):
        x, w_norm, w_gemm, h, y, out = self._warmed_chain(process)
        eager_out = out.read().copy()
        process.default_stream.begin_capture(
            GraphExecMeta(param_bytes=1 << 20, num_tokens=1))
        launch_norm(process, x, w_norm, h)
        launch_gemm_magic(process, h, w_gemm, y)
        launch_add(process, y, x, out)
        graph = process.default_stream.end_capture()
        out.payload = np.zeros_like(eager_out)
        exec_graph = graph.instantiate(process)
        exec_graph.replay()
        np.testing.assert_allclose(out.read(), eager_out)

    def test_replay_reads_the_columns_at_replay_time(self, process):
        """A node's parameters are its column slice, read when the graph
        replays: rewriting a value retargets the node."""
        x, w_norm, w_gemm, h, y, out = self._warmed_chain(process)
        other = process.malloc(h.size, tag="other")
        process.default_stream.begin_capture()
        launch_norm(process, x, w_norm, h)
        graph = process.default_stream.end_capture()
        exec_graph = graph.instantiate(process)
        exec_graph.replay()
        spec = process.catalog.kernel("_Z9layernormPfS_S_i")
        values = graph.columns.param_values
        output = spec.param_index("output")
        assert values[output] == h.address
        values[output] = other.address
        exec_graph.replay()
        np.testing.assert_array_equal(other.read(), h.read())

    def test_replay_after_free_is_illegal_access(self, process):
        """PyTorch must keep capture-referenced buffers alive (§2.2)."""
        x, w_norm, w_gemm, h, y, out = self._warmed_chain(process)
        process.default_stream.begin_capture()
        launch_norm(process, x, w_norm, h)
        graph = process.default_stream.end_capture()
        process.free(x.address)
        exec_graph = graph.instantiate(process)
        with pytest.raises(IllegalMemoryAccessError):
            exec_graph.replay()

    def test_magic_buffers_checked_at_replay(self, process):
        """Corrupting a permanent magic buffer silently corrupts output."""
        x, w_norm, w_gemm, h, y, out = self._warmed_chain(process)
        process.default_stream.begin_capture()
        launch_gemm_magic(process, h, w_gemm, y)
        graph = process.default_stream.end_capture()
        exec_graph = graph.instantiate(process)
        exec_graph.replay()
        good = y.read().copy()
        # Find the magic buffer through the node's own raw params.
        spec = process.catalog.kernel("_ZN7cublas_sim4gemmEv")
        magic_index = spec.param_index("magic_a")
        magic_addr = int(graph.columns.param_values[magic_index])
        process.allocator.resolve(magic_addr).write(np.full((1, 1), 999.0))
        exec_graph.replay()
        assert not np.allclose(y.read(), good)

    def test_timing_mode_replay_skips_compute(self, process_factory):
        process = process_factory(seed=5, mode=ExecutionMode.TIMING)
        x = alloc(process)
        w = alloc(process)
        out = alloc(process)
        launch_norm(process, x, w, out)     # warm-up, no compute in TIMING
        process.default_stream.begin_capture()
        launch_norm(process, x, w, out)
        graph = process.default_stream.end_capture()
        before = process.clock.now
        graph.instantiate(process).replay()
        assert process.clock.now > before
        assert out.payload is None
