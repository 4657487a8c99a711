"""A deterministic resource-lane task executor for loading-phase schedules.

:mod:`repro.engine.loadplan` schedules each strategy's registered LoadPlan
into a stage timeline.  This module provides the general mechanism those
timelines are special cases of: tasks with durations, dependencies, and a
*resource lane* (CPU / IO / GPU), executed by a list scheduler where each
lane runs one task at a time.  The tests cross-validate the plan timelines
against this executor (a test oracle, not part of the package), so the
plan scheduler cannot silently drift from the semantics it claims to model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import EngineError

CPU = "cpu"
IO = "io"
GPU = "gpu"


@dataclass(frozen=True)
class Task:
    """One schedulable unit of loading-phase work."""

    name: str
    duration: float
    resource: str
    deps: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise EngineError(f"task {self.name} has negative duration")


@dataclass(frozen=True)
class ScheduledTask:
    name: str
    resource: str
    start: float
    end: float


@dataclass
class Schedule:
    """The executed plan: per-task placement plus the makespan."""

    tasks: List[ScheduledTask]

    @property
    def makespan(self) -> float:
        return max((t.end for t in self.tasks), default=0.0)

    def task(self, name: str) -> ScheduledTask:
        for scheduled in self.tasks:
            if scheduled.name == name:
                return scheduled
        raise EngineError(f"schedule has no task {name!r}")

    def overlap(self, first: str, second: str) -> float:
        """Seconds during which both tasks were running."""
        a, b = self.task(first), self.task(second)
        return max(0.0, min(a.end, b.end) - max(a.start, b.start))


def execute(tasks: Sequence[Task]) -> Schedule:
    """List-schedule ``tasks`` over their resource lanes.

    Each resource lane executes one task at a time; a task starts at the
    later of (its dependencies' completion, its lane's availability).  Ties
    are broken by task order, making the schedule deterministic.
    """
    by_name: Dict[str, Task] = {}
    for task in tasks:
        if task.name in by_name:
            raise EngineError(f"duplicate task {task.name!r}")
        by_name[task.name] = task
    for task in tasks:
        for dep in task.deps:
            if dep not in by_name:
                raise EngineError(
                    f"task {task.name!r} depends on unknown {dep!r}")

    finished: Dict[str, float] = {}
    lane_free: Dict[str, float] = {}
    placed: List[ScheduledTask] = []
    remaining = list(tasks)
    while remaining:
        progressed = False
        for task in list(remaining):
            if any(dep not in finished for dep in task.deps):
                continue
            ready_at = max((finished[dep] for dep in task.deps), default=0.0)
            start = max(ready_at, lane_free.get(task.resource, 0.0))
            end = start + task.duration
            finished[task.name] = end
            lane_free[task.resource] = end
            placed.append(ScheduledTask(task.name, task.resource, start, end))
            remaining.remove(task)
            progressed = True
        if not progressed:
            cycle = ", ".join(t.name for t in remaining)
            raise EngineError(f"dependency cycle among: {cycle}")
    return Schedule(placed)


def strategy_tasks(strategy, durations: Dict[str, float],
                   interference_penalty: float) -> List[Task]:
    """The task graph a strategy's LoadPlan describes, as executor tasks.

    Derived from the plan registered in :mod:`repro.engine.strategies`
    (sequential plans chain their stages through dependencies, so the
    single-lane projection is faithful).  Used by tests to cross-validate
    the plan scheduler against this independent executor implementation.
    """
    from repro.engine.lanes import Lane
    from repro.engine.strategies import plan_for

    lane_map = {Lane.CPU: CPU, Lane.PCIE: IO, Lane.DISK: IO,
                Lane.GPU_COMPUTE: GPU}
    tasks: List[Task] = []
    for stage in plan_for(strategy).stages:
        duration = durations.get(stage.name, 0.0)
        if stage.contention is not None and stage.contention.applies(durations):
            duration += interference_penalty
        tasks.append(Task(stage.name, duration, lane_map[stage.lane],
                          deps=stage.deps))
    return tasks
