"""Stamped layers equal per-call layers, bit for bit.

``Model.forward`` stamps layers 4 and on as one block when the process
allows it and layers 2-3 repeat.  Attaching a launch-only observer (a hook
that takes no blocks) makes every layer run call by call.  On every zoo
model, on custom configs whose stamped layer count is odd, and on every
layer width the zoo does not stamp, the two runs must leave the same
trace columns, allocator, graph columns and clock.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.core import offline
from repro.core.interception import TraceInterceptor
from repro.models.config import ModelConfig
from repro.models.zoo import PAPER_MODELS, TINY_MODELS
from repro.simgpu.kernels import KernelParam
from repro.simgpu.memory import Buffer, same_free_lists
from repro.simgpu.process import (
    ALLOC_EVENT,
    FREE_EVENT,
    LAUNCH_EVENT,
    CudaProcess,
    EventBlock,
    ExecutionMode,
    Interceptor,
)
from repro.simgpu.stream import CaptureMark, LaunchRecord, _CaptureBuilder
from tests.core.test_restore_goldens import allocator_digest


class LaunchObserver(Interceptor):
    """A passive launch-only hook: it takes no blocks."""

    adds_overhead = False

    def __init__(self):
        self.launches = 0

    def on_launch(self, record) -> None:
        self.launches += 1


def odd_config(num_layers: int, kernels: int = 11) -> ModelConfig:
    """A tiny model of ``num_layers`` layers of ``kernels`` kernels."""
    config = ModelConfig(
        name=f"Odd-{num_layers}L-{kernels}K", family="tiny",
        param_bytes=16 * 1024**2, num_layers=num_layers, hidden_size=64,
        vocab_size=256,
        total_graph_nodes=3 * (num_layers * kernels + 6) + 1,
        capture_batch_sizes=(1, 2, 4), checkpoint_seed=11, max_seq_len=128)
    assert len(config.kernel_template().layer_kernels) == kernels
    return config


# The zoo stamps layers of 10, 11 and 12 kernels; the custom configs add
# the other widths the layer template allows.
CONFIGS = [*PAPER_MODELS, *TINY_MODELS, odd_config(5), odd_config(7),
           *[odd_config(7, kernels) for kernels in (6, 7, 8, 9, 13)]]


def capture(config, per_call: bool, mode=ExecutionMode.TIMING):
    """The capturing stage of ``config`` at its smallest and largest
    capture sizes: (engine, trace)."""
    sizes = config.capture_batch_sizes
    phase = offline.OfflinePhase(config, mode=mode,
                                 batch_subset=(min(sizes), max(sizes)))
    real_attach = offline.attach

    def attach(process):
        if per_call:
            process.add_interceptor(LaunchObserver())
        return real_attach(process)

    with mock.patch.object(offline, "attach", attach):
        engine, trace, _ = phase._capturing_stage()
    return engine, trace


def stamped_layers(config, trace) -> int:
    """How many layers the capture stamped (from the trace's count)."""
    layers, rest = divmod(trace.stamped_launches,
                          len(config.kernel_template().layer_kernels))
    assert rest == 0
    return layers


def graph_state(engine):
    state = []
    for batch, graph in sorted(engine.capture_artifacts.graphs.items()):
        meta = graph.exec_meta
        state.append((batch, [column.tolist() for column in graph.columns],
                      (meta.param_bytes, meta.num_tokens, meta.batch_size)))
    return state


def trace_state(trace):
    def lists(columns):
        return [column.tolist() for column in columns[:7]]

    return (lists(trace.alloc_columns()), lists(trace.free_columns()),
            lists(trace.launch_columns()), list(trace.empty_cache_seq),
            trace.tags, trace.pools, trace.kernels, trace.dims)


def assert_same_capture(stamped, per_call):
    (engine_a, trace_a), (engine_b, trace_b) = stamped, per_call
    assert trace_state(trace_a) == trace_state(trace_b)
    assert allocator_digest(engine_a.process.allocator) \
        == allocator_digest(engine_b.process.allocator)
    assert graph_state(engine_a) == graph_state(engine_b)
    assert engine_a.process.clock.now == engine_b.process.clock.now


@pytest.mark.parametrize("config", CONFIGS, ids=[c.name for c in CONFIGS])
def test_stamped_capture_equals_per_call(config):
    stamped = capture(config, per_call=False)
    per_call = capture(config, per_call=True)
    assert per_call[1].stamped_launches == 0
    assert per_call[1].stamped_allocations == 0
    # Every forwarding (the profile, two warm-ups, two captures) stamps
    # its layers 4 and on; a model of four layers or fewer stamps none.
    assert stamped_layers(config, stamped[1]) \
        == 5 * max(0, config.num_layers - 4)
    assert_same_capture(stamped, per_call)


def test_compute_mode_capture_carries_payloads():
    """In COMPUTE mode the profile and warm-up forwardings execute
    kernels, so they run call by call; the captures stamp blocks whose
    reused blocks carry the warm-ups' payloads."""
    config = odd_config(7)
    stamped = capture(config, per_call=False, mode=ExecutionMode.COMPUTE)
    per_call = capture(config, per_call=True, mode=ExecutionMode.COMPUTE)
    assert stamped_layers(config, stamped[1]) == 2 * 3
    assert_same_capture(stamped, per_call)
    carried = 0
    for a, b in zip(stamped[0].process.allocator.history,
                    per_call[0].process.allocator.history):
        assert (a.payload is None) == (b.payload is None)
        if a.payload is not None:
            carried += a.tag == "act"
            assert np.array_equal(a.payload, b.payload, equal_nan=True)
    assert carried


def test_per_call_rows_after_a_stamped_block_keep_seq_order():
    """Every trace and graph column keeps record order across per-call
    layers, a stamped block of two layers and another per-call row."""
    interceptor = TraceInterceptor()
    builder = _CaptureBuilder(meta=None, origin=mock.Mock())
    process = mock.Mock()
    process.allocator.resolve.side_effect = lambda address: mock.Mock(
        address=address)
    spec = mock.Mock(pointer_slots=((0, "input"), (1, "output")))

    def per_call(index: int, address: int) -> None:
        buffer = Buffer(address, 256, index, "act", "default")
        params = [KernelParam(8, 0x9000), KernelParam(8, address)]
        interceptor.on_alloc(buffer)
        interceptor.on_launch(LaunchRecord("k", "lib", params, {}, True))
        builder.record(process, spec, 0xA000 + index, params, {})
        interceptor.on_free(buffer)

    # Layers 0-3 write A, B, A, B in turn, so layers 2-3 repeat 0-1.
    marks = []
    for index, address in enumerate((0x1000, 0x2000, 0x1000, 0x2000)):
        per_call(index, address)
        marks.append(builder.mark())
    assert builder.repeats(marks[1], marks[3])
    block = EventBlock(
        layers=2, kinds=np.tile([ALLOC_EVENT, LAUNCH_EVENT, FREE_EVENT], 2),
        alloc_index=np.array([4, 5]), address=np.array([0x1000, 0x2000]),
        size=np.array([256, 256]), payload_ids=np.array([-1, -1]),
        payloads=[], tag="act", pool="default",
        freed_index=np.array([4, 5]),
        freed_address=np.array([0x1000, 0x2000]), kernels=np.array([0, 0]),
        kernel_table=[("k", "lib")], kernel_addresses=np.array([0xA004] * 2),
        param_counts=np.array([2, 2]), param_sizes=np.array([8, 8, 8, 8]),
        param_values=np.array([0x9000, 0x1000, 0x9000, 0x2000]),
        launch_dims={}, captured=True)
    interceptor.on_block(block)
    builder.stamp(block, marks[1:])
    per_call(6, 0x3000)

    trace = interceptor.trace
    allocs, frees = trace.alloc_columns(), trace.free_columns()
    launches = trace.launch_columns()
    assert allocs.seq.tolist() == list(range(0, 21, 3))
    assert launches.seq.tolist() == list(range(1, 21, 3))
    assert frees.seq.tolist() == list(range(2, 21, 3))
    assert allocs.alloc_index.tolist() == frees.alloc_index.tolist() \
        == list(range(7))
    assert allocs.address.tolist() == [0x1000, 0x2000] * 3 + [0x3000]
    assert launches.values.tolist() == [
        value for address in allocs.address.tolist()
        for value in (0x9000, address)]
    assert (trace.stamped_allocations, trace.stamped_launches) == (2, 2)
    graph = builder.graph()
    assert graph.columns.kernel_addresses.tolist() == [
        0xA000, 0xA001, 0xA002, 0xA003, 0xA004, 0xA004, 0xA006]
    assert graph.columns.param_values.tolist() == launches.values.tolist()
    assert graph.columns.edges.tolist() == [[i, i + 1] for i in range(6)]


class TestRepeatCheck:
    """What ``CudaProcess.layers_repeat`` compares."""

    @pytest.fixture(scope="class")
    def marks(self):
        """A process and the three marks of its last forwarding."""
        seen = []
        real = CudaProcess.mark_layer

        def spy(process, carry):
            seen.append((process, real(process, carry)))
            return seen[-1][1]

        with mock.patch.object(CudaProcess, "mark_layer", spy):
            capture(odd_config(7), per_call=False)
        return seen[-1][0], [mark for _process, mark in seen[-3:]]

    def test_the_last_capture_repeats(self, marks):
        _process, (first, _second, third) = marks
        assert first.carry == third.carry
        assert first.capture is not None
        assert third.capture.nodes - first.capture.nodes == 2 * 11

    @pytest.mark.parametrize("field", ["carry", "magic", "launch_ready",
                                       "free_lists"])
    def test_a_changed_field_fails(self, marks, field):
        process, (first, _second, third) = marks
        assert process.layers_repeat(first, third)
        changed = {"carry": third.carry + 256, "magic": {},
                   "launch_ready": {},
                   "free_lists": {**third.free_lists, ("graph", 1): []}}
        assert not process.layers_repeat(
            first, third._replace(**{field: changed[field]}))

    def test_free_lists_compare_payloads_by_identity(self):
        payload = np.zeros(3)
        lists = {("graph", 256): [(0x100, True, payload), (0x200, True,
                                                           None)]}
        same = {key: list(entries) for key, entries in lists.items()}
        assert same_free_lists(lists, same)
        copied = {("graph", 256): [(0x100, True, payload.copy()),
                                   (0x200, True, None)]}
        assert not same_free_lists(lists, copied)
        reordered = {("graph", 256): lists[("graph", 256)][::-1]}
        assert not same_free_lists(lists, reordered)

    def test_capture_writers_must_shift_by_two_layers(self):
        builder = _CaptureBuilder(meta=None, origin=mock.Mock())
        # Node 0 is the prologue; layers of 3 nodes follow: layer 0 is
        # nodes 1-3 ... layer 3 is nodes 10-12.  0xD's writer is older
        # than layer 0 and is not compared.
        first = CaptureMark(7, 0, {0xA: 5, 0xB: 6, 0xC: 2, 0xD: 0})
        third = CaptureMark(13, 0, {0xA: 11, 0xB: 12, 0xC: 8, 0xD: 0})
        assert builder.repeats(first, third)
        moved = third._replace(last_writer={**third.last_writer, 0xB: 10})
        assert not builder.repeats(first, moved)
        # A buffer layer 0 wrote that layers 2-3 did not write again.
        stale = third._replace(last_writer={**third.last_writer, 0xC: 2})
        assert not builder.repeats(first, stale)

    def test_an_edge_before_the_window_fails(self):
        builder = _CaptureBuilder(meta=None, origin=mock.Mock())
        builder._sources.add(np.array([5, 6, 0]))   # node 0: before layer 0
        builder._targets.add(np.array([7, 8, 9]))
        first = CaptureMark(7, 0, {})
        third = CaptureMark(13, 3, {})
        assert not builder.repeats(first, third)
        assert builder.repeats(first, third._replace(edges=2))
