"""Scheduled timelines for tests that pin stage boundaries by hand."""

from __future__ import annotations

from repro.engine.lanes import Lane
from repro.engine.loadplan import LoadPlan, PlanStage, ScheduledStage, Timeline


def chain_timeline(*stages: ScheduledStage) -> Timeline:
    """Schedule ``stages`` as a serial chain plan and return its timeline.

    Each stage depends on the one before it, runs on its literal's lane,
    keeps its literal's background flag and lasts ``end - start`` of its
    literal.  The scheduler must land every stage on exactly the
    boundaries written (asserted bit for bit), so a test can read its
    timeline off the literals while the timeline itself is a scheduled
    plan with its DAG; critical-path flags are the scheduler's.
    """
    plan_stages = []
    deps: tuple = ()
    for stage in stages:
        plan_stages.append(PlanStage(stage.name, Lane(stage.lane), deps=deps,
                                     background=stage.background))
        deps = (stage.name,)
    timeline = LoadPlan("chain", tuple(plan_stages)).schedule(
        {stage.name: stage.end - stage.start for stage in stages})
    assert [(s.start, s.end) for s in timeline.stages] == \
        [(s.start, s.end) for s in stages]
    return timeline
