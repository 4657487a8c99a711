"""Property: the event kernel never delivers events out of timestamp order.

Whatever order events are scheduled in — including follow-ups scheduled
from inside handlers — dispatch times are non-decreasing, ties resolve by
handler priority then insertion sequence, and cancelled events never
fire.  This is the determinism contract every simulator built on
:mod:`repro.sim` inherits (MECHANISM.md "Event kernel").
"""

from hypothesis import given, settings, strategies as st

from repro.sim import EventLoop

# A schedule is a list of (time, kind-index, cancel?) triples; times are
# coarse multiples so ties actually occur.
_schedules = st.lists(
    st.tuples(
        st.integers(0, 20).map(lambda n: n * 0.5),
        st.integers(0, 2),
        st.booleans(),
    ),
    max_size=80,
)

_KINDS = ("arrival", "ready", "step_done")


def _build(schedule):
    """Run a schedule; returns the dispatch log and cancelled payloads."""
    log = []
    loop = EventLoop()
    for kind in _KINDS:
        loop.on(kind, lambda e, k=kind: log.append((loop.now, k, e.payload)))
    cancelled = set()
    for payload, (time, kind_idx, cancel) in enumerate(schedule):
        event = loop.schedule(time, _KINDS[kind_idx], payload)
        if cancel:
            loop.cancel(event)
            cancelled.add(payload)
    loop.run()
    return log, cancelled, loop


class TestDispatchOrderProperty:
    @settings(max_examples=200, deadline=None)
    @given(schedule=_schedules)
    def test_timestamps_never_decrease(self, schedule):
        log, cancelled, loop = _build(schedule)
        times = [t for t, _, _ in log]
        assert times == sorted(times)
        assert loop.now == (times[-1] if times else 0.0)

    @settings(max_examples=200, deadline=None)
    @given(schedule=_schedules)
    def test_ties_resolve_by_priority_then_insertion(self, schedule):
        log, _, _ = _build(schedule)
        priority = {k: i for i, k in enumerate(_KINDS)}
        keys = [(t, priority[k], p) for t, k, p in log]
        assert keys == sorted(keys)

    @settings(max_examples=200, deadline=None)
    @given(schedule=_schedules)
    def test_cancelled_events_never_fire_others_all_do(self, schedule):
        log, cancelled, loop = _build(schedule)
        fired = {p for _, _, p in log}
        assert fired.isdisjoint(cancelled)
        assert fired == set(range(len(schedule))) - cancelled
        assert loop.dispatched == len(schedule) - len(cancelled)

    @settings(max_examples=100, deadline=None)
    @given(schedule=_schedules, fanout=st.integers(0, 3))
    def test_handler_scheduled_followups_respect_order(self, schedule,
                                                       fanout):
        log = []
        loop = EventLoop()
        loop.on("seed", lambda e: _spawn(loop, log, e))
        loop.on("child", lambda e: log.append(loop.now))

        def _spawn(lp, out, event):
            out.append(lp.now)
            for i in range(fanout):
                lp.schedule(lp.now + 0.25 * (i + 1), "child", None)

        for time, _, _ in schedule:
            loop.schedule(time, "seed", None)
        loop.run()
        assert log == sorted(log)

    @settings(max_examples=100, deadline=None)
    @given(schedule=_schedules)
    def test_identical_schedules_replay_identically(self, schedule):
        assert _build(schedule)[0] == _build(schedule)[0]
