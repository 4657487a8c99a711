"""CUDA events and multi-stream (fork/join) capture tests."""

import numpy as np
import pytest

from repro.errors import CaptureViolationError, InvalidValueError
from repro.simgpu.stream import CudaEvent, Stream

from tests.simgpu.helpers import launch_add, launch_norm, params_for, rand_payload


def alloc(process, seed=None):
    payload = rand_payload(seed) if seed is not None else None
    return process.malloc(128, tag="act", payload=payload)


def launch_on(process, stream, kernel_name, roles):
    spec = process.catalog.kernel(kernel_name)
    stream.launch_kernel(spec, params_for(spec, roles))


class TestEvents:
    def test_wait_on_unrecorded_event_rejected(self, process):
        stream = process.default_stream
        with pytest.raises(InvalidValueError):
            stream.wait_event(CudaEvent("e"))

    def test_record_and_wait_outside_capture(self, process):
        stream = process.default_stream
        event = CudaEvent("e")
        stream.record_event(event)
        stream.wait_event(event)   # ordering no-op outside capture

    def test_wait_on_uncaptured_event_during_capture_violates(self, process):
        stream = process.default_stream
        event = CudaEvent("e")
        stream.record_event(event)           # recorded outside any capture
        stream.begin_capture()
        with pytest.raises(CaptureViolationError):
            stream.wait_event(event)
        assert not stream.is_capturing       # capture aborted


class TestForkJoinCapture:
    def _warm(self, process):
        x = alloc(process, 1)
        w = alloc(process, 2)
        mid_a = alloc(process)
        mid_b = alloc(process)
        out = alloc(process)
        launch_norm(process, x, w, mid_a)    # warm up norm module
        launch_add(process, x, w, mid_b)     # warm up elementwise module
        return x, w, mid_a, mid_b, out

    def test_fork_join_produces_diamond_dependencies(self, process):
        x, w, mid_a, mid_b, out = self._warm(process)
        main = process.default_stream
        side = Stream(process, name="stream1")

        main.begin_capture()
        launch_on(process, main, "_Z9layernormPfS_S_i",
                  {"input": x.address, "weight": w.address,
                   "output": mid_a.address})                      # node 0
        fork = CudaEvent("fork")
        main.record_event(fork)
        side.wait_event(fork)                                     # join capture
        assert side.is_capturing
        launch_on(process, side, "_Z11copy_kernelPfS_",
                  {"input": mid_a.address, "output": mid_b.address})  # node 1
        join = CudaEvent("join")
        side.record_event(join)
        main.wait_event(join)
        launch_on(process, main, "_Z12residual_addPfS_S_",
                  {"input": mid_a.address, "input_b": mid_b.address,
                   "output": out.address})                        # node 2
        graph = main.end_capture()

        assert graph.num_nodes == 3
        edges = graph.columns.edges.tolist()
        assert [0, 1] in edges           # fork: side depends on node 0
        assert [1, 2] in edges           # join: main depends on side's node
        assert not side.is_capturing     # end_capture released everyone

    def test_joined_stream_cannot_end_capture(self, process):
        x, w, mid_a, mid_b, out = self._warm(process)
        main = process.default_stream
        side = Stream(process, name="stream1")
        main.begin_capture()
        launch_on(process, main, "_Z9layernormPfS_S_i",
                  {"input": x.address, "weight": w.address,
                   "output": mid_a.address})
        fork = CudaEvent("fork")
        main.record_event(fork)
        side.wait_event(fork)
        with pytest.raises(CaptureViolationError):
            side.end_capture()
        main.abort_capture()

    def test_fork_join_graph_replays_correctly(self, process):
        x, w, mid_a, mid_b, out = self._warm(process)
        main = process.default_stream
        side = Stream(process, name="stream1")

        # Eager reference for the same three-kernel program.
        launch_norm(process, x, w, mid_a)
        launch_on(process, side, "_Z11copy_kernelPfS_",
                  {"input": mid_a.address, "output": mid_b.address})
        launch_add(process, mid_a, mid_b, out)
        expected = out.read().copy()

        main.begin_capture()
        launch_on(process, main, "_Z9layernormPfS_S_i",
                  {"input": x.address, "weight": w.address,
                   "output": mid_a.address})
        fork = CudaEvent("fork")
        main.record_event(fork)
        side.wait_event(fork)
        launch_on(process, side, "_Z11copy_kernelPfS_",
                  {"input": mid_a.address, "output": mid_b.address})
        join = CudaEvent("join")
        side.record_event(join)
        main.wait_event(join)
        launch_on(process, main, "_Z12residual_addPfS_S_",
                  {"input": mid_a.address, "input_b": mid_b.address,
                   "output": out.address})
        graph = main.end_capture()

        out.payload = np.zeros_like(expected)
        graph.instantiate(process).replay()
        np.testing.assert_allclose(out.read(), expected)
