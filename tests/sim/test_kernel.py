"""Unit tests for the discrete-event kernel (`repro.sim`)."""

import pytest

from repro.errors import InvalidValueError, SchedulingError
from repro.sim import Event, EventLoop, Span, TraceRecorder, check_advance


def make_loop(log):
    loop = EventLoop()
    loop.on("a", lambda e: log.append(("a", loop.now, e.payload)))
    loop.on("b", lambda e: log.append(("b", loop.now, e.payload)))
    return loop


class TestScheduling:
    def test_events_dispatch_in_time_order(self):
        log = []
        loop = make_loop(log)
        loop.schedule(3.0, "a", 1)
        loop.schedule(1.0, "a", 2)
        loop.schedule(2.0, "b", 3)
        assert loop.run() == 3
        assert [t for _, t, _ in log] == [1.0, 2.0, 3.0]
        assert [p for _, _, p in log] == [2, 3, 1]

    def test_ties_break_by_registration_priority_then_seq(self):
        log = []
        loop = make_loop(log)   # "a" registered before "b"
        loop.schedule(1.0, "b", "b0")
        loop.schedule(1.0, "a", "a0")
        loop.schedule(1.0, "a", "a1")
        loop.run()
        assert [p for _, _, p in log] == ["a0", "a1", "b0"]

    def test_explicit_priority_overrides_registration_order(self):
        log = []
        loop = EventLoop()
        loop.on("late", lambda e: log.append("late"), priority=5)
        loop.on("early", lambda e: log.append("early"), priority=1)
        loop.schedule(1.0, "late")
        loop.schedule(1.0, "early")
        loop.run()
        assert log == ["early", "late"]

    def test_scheduling_into_the_past_is_invalid(self):
        loop = make_loop([])
        loop.schedule(5.0, "a")
        loop.step()
        assert loop.now == 5.0
        with pytest.raises(InvalidValueError):
            loop.schedule(4.0, "a")

    def test_unregistered_kind_rejected(self):
        loop = make_loop([])
        with pytest.raises(SchedulingError):
            loop.schedule(1.0, "nope")

    def test_duplicate_handler_rejected(self):
        loop = make_loop([])
        with pytest.raises(SchedulingError):
            loop.on("a", lambda e: None)

    def test_handlers_can_schedule_followups(self):
        log = []
        loop = EventLoop()

        def chain(event):
            log.append(loop.now)
            if event.payload > 0:
                loop.schedule(loop.now + 1.0, "tick", event.payload - 1)

        loop.on("tick", chain)
        loop.schedule(0.0, "tick", 3)
        assert loop.run() == 4
        assert log == [0.0, 1.0, 2.0, 3.0]


class TestTieKeys:
    def test_co_timed_events_order_by_tie_then_insertion(self):
        log = []
        loop = make_loop(log)
        loop.schedule(1.0, "a", "t2", tie=2)
        loop.schedule(1.0, "a", "t0-first")
        loop.schedule(1.0, "a", "t1-first", tie=1)
        loop.schedule(1.0, "a", "t1-second", tie=1)
        loop.schedule(1.0, "a", "t0-second", tie=0)
        loop.run()
        assert [p for _, _, p in log] == [
            "t0-first", "t0-second", "t1-first", "t1-second", "t2"]

    def test_tie_ranks_below_time_and_priority(self):
        log = []
        loop = make_loop(log)   # "a" before "b"
        loop.schedule(2.0, "a", "late", tie=0)
        loop.schedule(1.0, "b", "b-tie0", tie=0)
        loop.schedule(1.0, "a", "a-tie9", tie=9)
        loop.run()
        assert [p for _, _, p in log] == ["a-tie9", "b-tie0", "late"]

    def test_default_tie_keeps_insertion_order(self):
        log = []
        loop = make_loop(log)
        for payload in ("x", "y", "z"):
            loop.schedule(1.0, "a", payload)
        loop.run()
        assert [p for _, _, p in log] == ["x", "y", "z"]

    def test_cancel_a_tied_event(self):
        log = []
        loop = make_loop(log)
        loop.schedule(1.0, "a", "keep-1", tie=1)
        drop = loop.schedule(1.0, "a", "drop", tie=1)
        loop.schedule(1.0, "a", "keep-0", tie=0)
        loop.cancel(drop)
        assert loop.run() == 2
        assert [p for _, _, p in log] == ["keep-0", "keep-1"]

    def test_dispatching_holds_the_current_sort_key(self):
        keys = []
        loop = EventLoop()
        loop.on("a", lambda e: keys.append(loop._dispatching[:3]))
        loop.on("b", lambda e: keys.append(loop._dispatching[:3]))
        loop.schedule(1.0, "b", tie=7)
        loop.schedule(1.0, "a")
        loop.run()
        assert keys == [(1.0, 0, 0), (1.0, 1, 7)]


class TestCancellation:
    def test_cancelled_event_never_dispatches(self):
        log = []
        loop = make_loop(log)
        keep = loop.schedule(1.0, "a", "keep")
        drop = loop.schedule(2.0, "a", "drop")
        loop.cancel(drop)
        loop.run()
        assert [p for _, _, p in log] == ["keep"]
        assert keep.seq != drop.seq

    def test_cancel_after_dispatch_is_noop(self):
        log = []
        loop = make_loop(log)
        event = loop.schedule(1.0, "a", "x")
        loop.run()
        loop.cancel(event)   # nothing to annul
        assert [p for _, _, p in log] == ["x"]


class TestDeterminism:
    def test_two_identical_schedules_dispatch_identically(self):
        def run():
            log = []
            loop = make_loop(log)
            for i in range(50):
                loop.schedule((i * 7) % 13 * 0.5, "a" if i % 2 else "b", i)
            loop.run()
            return log
        assert run() == run()

    def test_dispatched_counter(self):
        loop = make_loop([])
        for t in (1.0, 2.0, 3.0):
            loop.schedule(t, "a")
        loop.run()
        assert loop.dispatched == 3


class TestCheckAdvance:
    def test_monotonicity_check_shared_with_clock(self):
        assert check_advance(1.0, 2.5) == 3.5
        with pytest.raises(InvalidValueError):
            check_advance(1.0, -0.5)

    def test_event_is_immutable(self):
        event = Event(time=1.0, kind="a", seq=0)
        with pytest.raises(AttributeError):
            event.time = 2.0


class TestTraceRecorder:
    def test_spans_and_marks_recorded_with_tracks(self):
        trace = TraceRecorder()
        trace.span("load", 0.0, 2.0, track="instance-0", lane="disk")
        trace.span("load", 2.0, 3.0, track="instance-1")
        trace.mark("ready", 3.0, track="instance-0", detail=1)
        assert trace.total("load") == pytest.approx(3.0)
        assert trace.last("load").end == 3.0
        assert len(trace.spans_named("load")) == 2
        assert trace.tracks == ["instance-0", "instance-1"]
        assert trace.args[0] == {"lane": "disk"}
        assert trace.marks == [("ready", 3.0, "instance-0", {"detail": 1})]

    def test_disabled_recorder_records_nothing(self):
        trace = TraceRecorder()
        trace.enabled = False
        assert trace.span("load", 0.0, 2.0, track="instance-0") is None
        trace.mark("ready", 3.0, track="instance-0", detail=1)
        assert trace.spans == [] and trace.tracks == []
        assert trace.args == [] and trace.marks == []

    def test_span_type_shared_with_engine_clock(self):
        from repro.simgpu.clock import Span as ClockSpan
        assert ClockSpan is Span

    def test_loop_trace_is_writable_during_dispatch(self):
        loop = EventLoop()
        loop.on("a", lambda e: loop.trace.mark("seen", loop.now))
        loop.schedule(1.0, "a")
        loop.run()
        assert loop.trace.marks[0][1] == 1.0
