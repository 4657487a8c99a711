"""Buffer contents classification (§4.3) and trace bookkeeping tests."""

from repro.core.classify import ContentPlan, classify_buffers
from repro.core.trace import (
    AllocTraceEvent,
    EmptyCacheTraceEvent,
    FreeTraceEvent,
    LaunchTraceEvent,
    Trace,
)

HEAP = 0x7F00_0000_0000


def alloc(seq, index, tag="act"):
    return AllocTraceEvent(seq=seq, alloc_index=index,
                           address=HEAP + index * 256, size=256, tag=tag)


def free(seq, index):
    return FreeTraceEvent(seq=seq, alloc_index=index,
                          address=HEAP + index * 256, pooled=True)


class TestClassify:
    def test_three_way_split(self):
        trace = Trace(events=[
            alloc(0, 0, tag="weight"),     # pre-capture
            alloc(1, 1),                   # capture-stage temp (freed)
            free(2, 1),
            alloc(3, 2, tag="magic"),      # capture-stage permanent
        ])
        plan = classify_buffers(trace, capture_marker=1, referenced={0, 1, 2})
        assert plan == ContentPlan(pre_capture={0}, temporary={1},
                                   permanent={2})

    def test_unreferenced_buffers_not_classified(self):
        trace = Trace(events=[alloc(0, 0), alloc(1, 1)])
        plan = classify_buffers(trace, capture_marker=0, referenced={0})
        assert 1 not in plan.pre_capture | plan.temporary | plan.permanent

    def test_counts(self):
        trace = Trace(events=[alloc(i, i) for i in range(5)]
                      + [free(10, 3)])
        plan = classify_buffers(trace, capture_marker=2,
                                referenced={0, 1, 2, 3, 4})
        assert len(plan.pre_capture) == 2
        assert len(plan.temporary) == 1
        assert len(plan.permanent) == 2


class TestTrace:
    def test_event_filters(self):
        trace = Trace(events=[
            alloc(0, 0),
            free(1, 0),
            EmptyCacheTraceEvent(seq=2),
            LaunchTraceEvent(seq=3, kernel_name="k", library="l",
                             param_sizes=(8,), param_values=(HEAP,),
                             launch_dims=(), captured=True),
            LaunchTraceEvent(seq=4, kernel_name="k", library="l",
                             param_sizes=(8,), param_values=(HEAP,),
                             launch_dims=(), captured=False),
        ])
        assert len(trace.allocations()) == 1
        assert len(trace.frees()) == 1
        assert len(trace.launches()) == 2
        assert len(trace.launches(captured_only=True)) == 1
        assert trace.num_events == 5


def _assert_trace_contract(trace):
    """The per-kind lists and the free map are views of ``events``."""
    events = trace.events
    for kind, rows in ((AllocTraceEvent, trace.allocations()),
                       (FreeTraceEvent, trace.frees()),
                       (LaunchTraceEvent, trace.launches())):
        assert rows == [e for e in events if type(e) is kind]
    seqs = [e.seq for e in events]
    assert all(a < b for a, b in zip(seqs, seqs[1:]))
    frees = trace.free_columns()
    assert dict(zip(frees.alloc_index.tolist(), frees.seq.tolist())) == {
        e.alloc_index: e.seq for e in events if type(e) is FreeTraceEvent}


class TestTraceContract:
    def test_constructed_trace(self):
        _assert_trace_contract(Trace(events=[
            alloc(0, 0), alloc(1, 1), free(2, 1), EmptyCacheTraceEvent(3),
            LaunchTraceEvent(4, "k", "l", (8,), (HEAP,), (), True),
            alloc(5, 2), free(6, 0), free(7, 2)]))

    def test_recorded_capture_trace(self):
        """A real offline capture: rows land in their per-kind lists and
        the free map as they are recorded, with ``seq`` = stream position."""
        from unittest import mock

        from repro.core import offline
        from tests.conftest import tiny_cost_model
        traces = []
        real_detach = offline.detach

        def spy(process, interceptor):
            traces.append(real_detach(process, interceptor))
            return traces[-1]

        with mock.patch.object(offline, "detach", spy):
            offline.run_offline("Tiny-2L", cost_model=tiny_cost_model())
        trace, = traces
        _assert_trace_contract(trace)
        assert [e.seq for e in trace.events] == list(range(trace.num_events))
        assert trace.allocations() and trace.frees() and trace.launches()
        assert any(type(e) is EmptyCacheTraceEvent for e in trace.events)
