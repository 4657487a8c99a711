"""The positional scheduler against the name-keyed reference, bit for bit.

:func:`repro.engine.loadplan._list_schedule` places stages from a
position table and flags the critical path in one backward pass;
:func:`retime_stages` re-places a timeline from the same table.  Over
every registered plan, the test plans of ``test_retime.py`` (pipelined
and chunk-streamed) and a plan with the degradation ladder appended,
with random stage durations and random fetch overrides, both must give
what ``tests/engine/reference_schedule.py`` gives: every start and end
``.hex()``-equal, the same lanes, critical and background flags.  And
each timeline's cached facts must equal a fresh recomputation from its
``stages``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.loadplan import (
    FETCH_ARTIFACT,
    FETCH_CHUNK_PATTERN,
    ScheduledStage,
    Timeline,
    append_stages,
    retime_stages,
)
from repro.engine.strategies import plan_for, registered_plans
from repro.faults.ladder import DEGRADED_LADDER_STAGES
from tests.engine import reference_schedule as reference
from tests.engine.test_retime import _plans

PENALTIES = {"weight_kv_interference": 0.08}

PLANS = {
    **registered_plans(),
    **{f"test/{key}": plan for key, plan in _plans().items()},
    "test/degraded": append_stages(plan_for("medusa-pipelined"),
                                   DEGRADED_LADDER_STAGES),
}

#: Durations that make stages end together (ties and zero-slack links).
ROUND = st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0, 3.0])
DURATION = st.one_of(ROUND, st.floats(0.0, 10.0, allow_nan=False))


def _columns(stages):
    return [(stage.name, stage.start.hex(), stage.end.hex(), stage.lane,
             stage.critical, stage.background) for stage in stages]


def _assert_facts(timeline: Timeline) -> None:
    """The cached facts equal a fresh recomputation from ``stages``."""
    fresh = reference.facts(timeline.stages)
    assert timeline.total.hex() == fresh["total"].hex()
    assert timeline.ready.hex() == fresh["ready"].hex()
    assert timeline.has_background is fresh["has_background"]
    events = timeline.stage_events()
    assert _columns(events) == _columns(fresh["events"])
    assert all(got is want for got, want in zip(events, fresh["events"]))
    assert [end.hex() for end in timeline.event_ends.tolist()] == \
        [stage.end.hex() for stage in events]
    assert [duration.hex() for duration in
            timeline.event_durations.tolist()] == \
        [stage.duration.hex() for stage in events]
    assert [timeline.stages[index] for index in
            timeline.event_name_ids.tolist()] == list(events)
    assert timeline.stage_events() is events


def _fetch_names(plan):
    return [stage.name for stage in plan.stages
            if stage.name == FETCH_ARTIFACT
            or FETCH_CHUNK_PATTERN.match(stage.name)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(PLANS)), st.data())
def test_schedule_and_retime_match_the_reference(key, data):
    plan = PLANS[key]
    durations = {stage.name: data.draw(DURATION, label=stage.name)
                 for stage in plan.stages}
    timeline = plan.schedule(durations, PENALTIES)
    expected = reference.list_schedule(
        reference.plan_rows(plan, durations, PENALTIES))
    assert _columns(timeline.stages) == _columns(expected)
    assert timeline.deps == {stage.name: stage.deps for stage in plan.stages}
    _assert_facts(timeline)

    # Random fetch overrides (any stages on a plan without a fetch stage),
    # or the whole fetch stream scaled, as a tier-resolved fetch does.
    names = _fetch_names(plan) or [stage.name for stage in plan.stages]
    if data.draw(st.booleans(), label="scale every fetch"):
        ratio = data.draw(st.floats(0.0, 8.0, allow_nan=False),
                          label="ratio")
        overrides = {name: timeline.stage(name).duration * ratio
                     for name in names}
    else:
        chosen = data.draw(st.lists(st.sampled_from(names), unique=True,
                                    max_size=len(names)), label="stages")
        overrides = {name: data.draw(DURATION, label=name)
                     for name in chosen}
    retimed = retime_stages(timeline, overrides)
    rows = reference.retime_rows(timeline, overrides)
    if rows is None:
        assert retimed is timeline
        return
    assert _columns(retimed.stages) == \
        _columns(reference.list_schedule(rows))
    assert retimed.deps == timeline.deps
    assert retimed.plan == timeline.plan
    _assert_facts(retimed)
    # A retimed timeline retimes as the reference does, too.
    again = {name: duration / 2 for name, duration in overrides.items()}
    twice = retime_stages(retimed, again)
    rows = reference.retime_rows(retimed, again)
    if rows is not None:
        assert _columns(twice.stages) == \
            _columns(reference.list_schedule(rows))


@pytest.mark.parametrize("key", sorted(PLANS))
def test_all_zero_durations_match_the_reference(key):
    """No stage takes time: no events, everything ends at zero."""
    plan = PLANS[key]
    durations = {stage.name: 0.0 for stage in plan.stages}
    timeline = plan.schedule(durations, PENALTIES)
    assert _columns(timeline.stages) == _columns(reference.list_schedule(
        reference.plan_rows(plan, durations, PENALTIES)))
    _assert_facts(timeline)
    assert timeline.stage_events() == ()


def test_hand_built_timeline_facts():
    """A timeline built from literal stages (not by the scheduler)
    computes the same facts, and an empty one has none."""
    timeline = plan_for("medusa-pipelined").schedule(
        {stage.name: 0.5 for stage in plan_for("medusa-pipelined").stages})
    copy = Timeline(None, list(timeline.stages), timeline.plan,
                    dict(timeline.deps))
    _assert_facts(copy)
    overrides = {FETCH_ARTIFACT: 2.0}
    assert _columns(retime_stages(copy, overrides).stages) == \
        _columns(retime_stages(timeline, overrides).stages)
    # Two stages end together: the one that started first comes first,
    # whatever their declaration order; a zero-length stage is no event.
    tied = Timeline(None, [ScheduledStage("late", 0.5, 1.0, "cpu"),
                           ScheduledStage("none", 0.5, 0.5, "cpu"),
                           ScheduledStage("early", 0.0, 1.0, "disk")],
                    "tied", {"late": (), "none": (), "early": ()})
    _assert_facts(tied)
    assert [stage.name for stage in tied.stage_events()] == ["early", "late"]
    empty = Timeline(None, [], "empty", {})
    _assert_facts(empty)
    assert (empty.total, empty.ready, empty.has_background) == \
        (0.0, 0.0, False)
