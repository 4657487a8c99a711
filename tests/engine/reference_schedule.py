"""Reference oracle for the LoadPlan scheduler: the name-keyed list schedule.

A copy of the scheduler as it was before the positional rewrite: every
stage is a ``(name, deps, lane, background, duration)`` row, placed with
name-keyed dicts, built as a :class:`ScheduledStage` once and then again
by a separate critical-path walk over a work list.  The timeline facts
(``total``, ``ready``, ``has_background``, the end-ordered stage events)
are the per-call recomputations the timeline used to run.
``test_schedule_parity.py`` checks the scheduler, ``retime_stages`` and
the timeline's cached facts against these.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.engine.loadplan import (
    LoadPlan,
    ScheduledStage,
    Timeline,
    _check_duration,
    _resolve_penalty,
)

_EPS = 1e-9

Row = Tuple[str, Tuple[str, ...], str, bool, float]


def plan_rows(plan: LoadPlan, durations: Mapping[str, float],
              penalties: Optional[object] = None) -> List[Row]:
    """``LoadPlan.schedule``'s rows: durations with contention added."""
    rows = []
    for stage in plan.stages:
        duration = float(durations.get(stage.name, 0.0))
        _check_duration(stage.name, duration)
        if stage.contention is not None \
                and stage.contention.applies(durations):
            duration += _resolve_penalty(penalties,
                                         stage.contention.penalty_key)
        rows.append((stage.name, stage.deps, stage.lane.label,
                     stage.background, duration))
    return rows


def retime_rows(timeline: Timeline,
                durations: Mapping[str, float]) -> Optional[List[Row]]:
    """``retime_stages``' rows, or None when no duration changes."""
    overrides: Dict[str, float] = {}
    for name, duration in durations.items():
        _check_duration(name, duration)
        if abs(duration - timeline.stage(name).duration) > _EPS:
            overrides[name] = duration
    if not overrides:
        return None
    return [(stage.name, timeline.deps[stage.name], stage.lane,
             stage.background, overrides.get(stage.name, stage.duration))
            for stage in timeline.stages]


def list_schedule(stages: Sequence[Row]) -> List[ScheduledStage]:
    """List-schedule ``(name, deps, lane, background, duration)`` rows."""
    finished: Dict[str, float] = {}
    lane_free: Dict[str, float] = {}
    lane_prev: Dict[str, str] = {}
    blockers: Dict[str, Tuple[str, ...]] = {}
    placed: List[ScheduledStage] = []
    for name, deps, lane, background, duration in stages:
        start = max((finished[dep] for dep in deps), default=0.0)
        start = max(start, lane_free.get(lane, 0.0))
        end = start + duration
        finished[name] = end
        preds = list(deps)
        if lane in lane_prev:
            preds.append(lane_prev[lane])
        blockers[name] = tuple(preds)
        lane_free[lane] = end
        lane_prev[lane] = name
        placed.append(ScheduledStage(name, start, end, lane,
                                     background=background))
    return mark_critical(placed, blockers)


def mark_critical(placed: Sequence[ScheduledStage],
                  blockers: Mapping[str, Tuple[str, ...]]
                  ) -> List[ScheduledStage]:
    """Flag every stage lying on a zero-slack chain ending at the makespan."""
    if not placed:
        return []
    by_name = {stage.name: stage for stage in placed}
    foreground = [stage for stage in placed if not stage.background]
    makespan = max(stage.end for stage in foreground) if foreground \
        else max(stage.end for stage in placed)
    critical = {stage.name for stage in foreground
                if abs(stage.end - makespan) <= _EPS}
    frontier = list(critical)
    while frontier:
        name = frontier.pop()
        stage = by_name[name]
        for pred_name in blockers.get(name, ()):
            pred = by_name[pred_name]
            if pred_name not in critical and not pred.background \
                    and abs(pred.end - stage.start) <= _EPS:
                critical.add(pred_name)
                frontier.append(pred_name)
    return [ScheduledStage(s.name, s.start, s.end, lane=s.lane,
                           critical=s.name in critical,
                           background=s.background) for s in placed]


def facts(stages: Sequence[ScheduledStage]) -> dict:
    """The timeline facts, recomputed from ``stages`` on every call."""
    total = max((stage.end for stage in stages), default=0.0)
    foreground = [s.end for s in stages if not s.background]
    events = sorted((stage for stage in stages if stage.duration > 0),
                    key=lambda stage: (stage.end, stage.start))
    return {
        "total": total,
        "ready": max(foreground) if foreground else total,
        "has_background": any(stage.background for stage in stages),
        "events": events,
    }
