"""Static verifier for cold-start LoadPlan stage graphs (PLN0xx codes).

The lane scheduler in :mod:`repro.engine.loadplan` places stages at the
later of dependency completion and lane availability — overlap *emerges*
from the DAG, so nothing in the plan itself says which stages may run
concurrently.  This analyzer recovers that fact statically: the
**happens-before relation** is the transitive closure of the exact edges
the scheduler serializes on (declared deps plus same-lane
declaration-order adjacency), so two stages are *concurrent* iff neither
reaches the other.  For durations where both are schedulable at the same
instant this is not a may-overlap approximation but a certainty: give the
pair unit duration and every other stage zero, and the scheduler places
both at ``[0, 1]`` (the property suite exercises exactly this witness).

Over that relation, each stage's declared ``reads``/``writes`` (the
resources of :mod:`repro.engine.loadplan`) yield the PLN0xx diagnostics,
reported through the same :class:`~repro.analysis.diagnostics.LintReport`
machinery as the MED0xx artifact codes.  A stage's declaration is the only
statement of its effects: a stage that declares none is invisible to the
race passes.

====== ==========================================================
PLN001 two concurrent stages write one resource
PLN002 a concurrent reader/writer pair on one resource
PLN003 a *background* stage writes what an unordered foreground
       stage reads — ``Timeline.ready`` would lie
PLN004 ``action_name`` unresolvable against the action registry
       (the engine's and the restorer's fixed actions plus the
       ``restore_graph[b]``/``fetch_chunk[i]`` patterns)
PLN005 a ``Contention`` partner stage missing from the plan
PLN006 a contention penalty key the cost model cannot resolve
PLN007 dead stage: writes nothing, nothing depends on it
PLN008 a dependency already implied by another dependency
PLN009 lane bubble: a stage is serialized behind a same-lane
       neighbor that becomes ready *later* (advisory)
====== ==========================================================

``register_plan`` runs this at registration time (errors raise,
advisories warn); ``repro lint-plan`` exposes it on the CLI; and
``validate_restoration`` runs it as a prepass before executing a plan.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from repro.analysis.diagnostics import Diagnostic, LintReport
from repro.engine.loadplan import (
    ENGINE_STAGE_ACTIONS,
    FETCH_CHUNK_PATTERN,
    RESTORE_GRAPH_PATTERN,
    RESTORER_STAGE_ACTIONS,
    append_stages,
)

#: The passes, in emission order (mirrors ``analyzer``'s pass list).
PLAN_PASSES = ("bindings", "races", "structure", "lanes")


def _pair_location(plan_name: str, a: str, b: str) -> str:
    return f"{plan_name}.stages[{a} | {b}]"


def _stage_location(plan_name: str, name: str) -> str:
    return f"{plan_name}.stages[{name}]"


# ---------------------------------------------------------------------------
# Ordering relations
# ---------------------------------------------------------------------------

def happens_before(plan) -> Dict[str, FrozenSet[str]]:
    """``before[s]`` = every stage guaranteed to finish before ``s`` starts.

    Exactly the edges the scheduler serializes on: declared dependencies
    plus the previous stage on the same lane (lane occupancy is
    declaration-ordered).  Declaration order is validated topological, so
    one forward sweep computes the transitive closure.
    """
    before: Dict[str, FrozenSet[str]] = {}
    lane_prev: Dict[object, str] = {}
    for stage in plan.stages:
        preds = list(stage.deps)
        if stage.lane in lane_prev:
            preds.append(lane_prev[stage.lane])
        closure = set()
        for pred in preds:
            closure.add(pred)
            closure |= before[pred]
        before[stage.name] = frozenset(closure)
        lane_prev[stage.lane] = stage.name
    return before


def deps_closure(plan) -> Dict[str, FrozenSet[str]]:
    """Transitive closure over *declared deps only* (no lane edges)."""
    closure: Dict[str, FrozenSet[str]] = {}
    for stage in plan.stages:
        reach = set()
        for dep in stage.deps:
            reach.add(dep)
            reach |= closure[dep]
        closure[stage.name] = frozenset(reach)
    return closure


def concurrent_pairs(plan) -> List[Tuple[str, str]]:
    """Every unordered stage pair, in declaration order.

    Same-lane pairs are never here (lane adjacency orders them), so every
    returned pair is cross-lane and genuinely schedulable in overlap.
    """
    before = happens_before(plan)
    names = [stage.name for stage in plan.stages]
    pairs = []
    for i, first in enumerate(names):
        for second in names[i + 1:]:
            if first not in before[second] and second not in before[first]:
                pairs.append((first, second))
    return pairs


def _dep_levels(plan) -> Dict[str, int]:
    """Unit-duration earliest-ready depth over declared deps only."""
    levels: Dict[str, int] = {}
    for stage in plan.stages:
        levels[stage.name] = (
            1 + max(levels[dep] for dep in stage.deps) if stage.deps else 0)
    return levels


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

def _is_known_action(action_name: str, known: FrozenSet[str]) -> bool:
    """Whether ``action_name`` is in ``known`` or matches a per-batch or
    per-chunk pattern (``VectorizedRestorer.stage_action_names``)."""
    return (action_name in known
            or RESTORE_GRAPH_PATTERN.match(action_name) is not None
            or FETCH_CHUNK_PATTERN.match(action_name) is not None)


def _check_bindings(plan, known_actions, cost_model) -> List[Diagnostic]:
    """PLN004/005/006: action names, contention partners, penalty keys."""
    out: List[Diagnostic] = []
    names = {stage.name for stage in plan.stages}
    known = frozenset(known_actions)
    for stage in plan.stages:
        if not _is_known_action(stage.action_name, known):
            out.append(Diagnostic(
                "PLN004",
                f"stage {stage.name!r} binds action "
                f"{stage.action_name!r}, which no engine or restorer "
                f"registers",
                location=_stage_location(plan.name, stage.name)))
        if stage.contention is None:
            continue
        for partner in stage.contention.with_stages:
            if partner not in names:
                out.append(Diagnostic(
                    "PLN005",
                    f"stage {stage.name!r} declares contention with "
                    f"{partner!r}, which is not a stage of this plan",
                    location=_stage_location(plan.name, stage.name)))
        key = stage.contention.penalty_key
        if not _penalty_resolves(cost_model, key):
            out.append(Diagnostic(
                "PLN006",
                f"stage {stage.name!r} uses contention penalty key "
                f"{key!r}, which the cost model cannot resolve",
                location=_stage_location(plan.name, stage.name)))
    return out


def _penalty_resolves(cost_model, key: str) -> bool:
    if cost_model is None:
        from repro.simgpu.costmodel import CostModel
        cost_model = CostModel()
    resolver = getattr(cost_model, "contention_penalty", None)
    if callable(resolver):
        try:
            resolver(key)
        except Exception:
            return False
        return True
    if isinstance(cost_model, Mapping):
        return key in cost_model
    return False


def _check_races(plan) -> List[Diagnostic]:
    """PLN001/002/003: effect conflicts between concurrent stages."""
    out: List[Diagnostic] = []
    stages = {stage.name: stage for stage in plan.stages}
    reads = {name: frozenset(stage.reads) for name, stage in stages.items()}
    writes = {name: frozenset(stage.writes)
              for name, stage in stages.items()}
    for first, second in concurrent_pairs(plan):
        a, b = stages[first], stages[second]
        shared_writes = writes[first] & writes[second]
        for resource in sorted(shared_writes):
            out.append(Diagnostic(
                "PLN001",
                f"stages {first!r} and {second!r} may run concurrently "
                f"and both write {resource!r}",
                location=_pair_location(plan.name, first, second)))
        for reader, writer in ((a, b), (b, a)):
            conflicts = (reads[reader.name] & writes[writer.name]) \
                - shared_writes
            for resource in sorted(conflicts):
                if writer.background and not reader.background:
                    out.append(Diagnostic(
                        "PLN003",
                        f"background stage {writer.name!r} writes "
                        f"{resource!r}, which unordered foreground stage "
                        f"{reader.name!r} reads — the ready instant would "
                        f"not cover that write",
                        location=_pair_location(
                            plan.name, writer.name, reader.name)))
                else:
                    out.append(Diagnostic(
                        "PLN002",
                        f"stage {reader.name!r} reads {resource!r} while "
                        f"concurrent stage {writer.name!r} writes it",
                        location=_pair_location(
                            plan.name, reader.name, writer.name)))
    return out


def _check_structure(plan) -> List[Diagnostic]:
    """PLN007/008: dead stages and redundant dependencies."""
    out: List[Diagnostic] = []
    depended = {dep for stage in plan.stages for dep in stage.deps}
    closure = deps_closure(plan)
    for stage in plan.stages:
        if not stage.writes and stage.name not in depended:
            out.append(Diagnostic(
                "PLN007",
                f"stage {stage.name!r} writes nothing and no stage "
                f"depends on it — it cannot affect the cold start",
                location=_stage_location(plan.name, stage.name)))
        for dep in stage.deps:
            implied_by = [other for other in stage.deps
                          if other != dep and dep in closure[other]]
            if implied_by:
                out.append(Diagnostic(
                    "PLN008",
                    f"stage {stage.name!r} dependency {dep!r} is already "
                    f"implied by {implied_by[0]!r}",
                    location=_stage_location(plan.name, stage.name)))
    return out


def _check_lanes(plan) -> List[Diagnostic]:
    """PLN009: declaration order serializes a later-ready stage first.

    For adjacent same-lane stages A then B with no dependency path A→B,
    the scheduler still queues B behind A.  If B's earliest-ready depth
    (unit-duration, deps only) is *smaller* than A's, swapping the
    declaration order would let B start earlier — a lane bubble smell.
    Background B is deliberate deferral, not a bubble.
    """
    out: List[Diagnostic] = []
    closure = deps_closure(plan)
    levels = _dep_levels(plan)
    lane_prev: Dict[object, object] = {}
    for stage in plan.stages:
        prev = lane_prev.get(stage.lane)
        lane_prev[stage.lane] = stage
        if prev is None or stage.background:
            continue
        if prev.name in closure[stage.name]:
            continue
        if levels[stage.name] < levels[prev.name]:
            out.append(Diagnostic(
                "PLN009",
                f"stage {stage.name!r} (ready at depth "
                f"{levels[stage.name]}) is serialized on lane "
                f"{prev.lane.label!r} behind {prev.name!r} (depth "
                f"{levels[prev.name]}) with no dependency forcing the "
                f"order",
                location=_pair_location(plan.name, prev.name, stage.name)))
    return out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def lint_plan(plan, known_actions: Optional[Iterable[str]] = None,
              cost_model=None) -> LintReport:
    """Statically verify one LoadPlan; returns a PLN0xx ``LintReport``.

    ``known_actions`` overrides the action universe, which defaults to
    the engine's and the restorer's fixed actions (pass a live restorer's
    ``stage_action_names()`` to lint against the actual binding);
    ``cost_model`` is anything with ``contention_penalty`` (defaults to a
    fresh ``CostModel``) or a penalty mapping.
    """
    report = LintReport(model=plan.name, gpu="plan",
                        passes=list(PLAN_PASSES), subject="plan")
    if known_actions is None:
        known_actions = ENGINE_STAGE_ACTIONS + RESTORER_STAGE_ACTIONS
    report.extend(_check_bindings(plan, known_actions, cost_model))
    report.extend(_check_races(plan))
    report.extend(_check_structure(plan))
    report.extend(_check_lanes(plan))
    report.stats = {
        "stages": float(len(plan.stages)),
        "background_stages": float(
            sum(1 for s in plan.stages if s.background)),
        "concurrent_pairs": float(len(concurrent_pairs(plan))),
    }
    return report


def lint_registered_plans() -> Dict[str, LintReport]:
    """Lint every registered plan and its degraded-ladder variant.

    A degraded variant's ladder stages execute no registered action (the
    restorer reports their durations), so their names join its universe.
    """
    from repro.engine.strategies import registered_plans
    from repro.faults.ladder import DEGRADED_LADDER_STAGES

    degraded_actions = (ENGINE_STAGE_ACTIONS + RESTORER_STAGE_ACTIONS
                        + tuple(stage.name for stage in DEGRADED_LADDER_STAGES))
    reports: Dict[str, LintReport] = {}
    for name, plan in sorted(registered_plans().items()):
        reports[name] = lint_plan(plan)
        degraded = append_stages(plan, DEGRADED_LADDER_STAGES)
        reports[degraded.name] = lint_plan(degraded,
                                           known_actions=degraded_actions)
    return reports
