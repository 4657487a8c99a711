"""Declarative cold-start stage graphs (LoadPlans) and their scheduler.

The paper's core loading-phase claim (§7.3) is about *reordering and
overlapping* stages.  Instead of hard-coding each strategy's overlap rules
in closed-form timeline math, a strategy is expressed as a **LoadPlan**: a
DAG of :class:`PlanStage` nodes, each declaring its dependencies, the
resource lane it occupies (:class:`repro.engine.lanes.Lane`), and an
optional :class:`repro.engine.lanes.Contention` model.  One generic
scheduler places every plan:

- a stage starts at the later of (its dependencies' completion, its lane's
  availability) — overlap and bubbles *emerge* from lane assignments;
- declared contention extends a stage's duration via a cost-model hook
  (`CostModel.contention_penalty`), replacing the old hard-coded +0.08 s;
- the critical path is recovered by walking blocking predecessors back
  from the makespan, and every placed stage carries its lane and an
  on-critical-path flag — the per-stage trace consumed by
  `repro.reporting.timeline` and the CLI breakdown table.

New strategies (pipelined restore-while-serving, ServerlessLLM-style
locality loading, Tangram-style memory reuse) become plan definitions in
`repro.engine.strategies` — no engine, simulator, or reporting edits.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.engine.lanes import Contention, Lane
from repro.errors import EngineError

#: Canonical stage names, in vanilla execution order.
STRUCTURE = "structure_init"
WEIGHTS = "load_weights"
TOKENIZER = "load_tokenizer"
KV_INIT = "kv_init"
CAPTURE = "capture"
#: Medusa-only stages: the overlappable first-layer warm-up and the serial
#: restore tail (alloc replay + node fill + module enumeration + instantiate).
MEDUSA_WARMUP = "medusa_warmup"
MEDUSA_RESTORE = "medusa_restore"
#: Pipelined-restore stages: artifact I/O on the DISK lane, the allocation
#: replay on the CPU lane, and one restore stage per captured batch size.
FETCH_ARTIFACT = "fetch_artifact"
REPLAY_ALLOC = "replay_alloc"

#: Restorer actions Medusa's plans bind their stages to: the KV restore
#: that replaces profiling, the warm-up window, and the monolithic tail.
RESTORE_KV = "restore_kv"
RESTORE_WARMUP = "restore_warmup"
RESTORE_TAIL = "restore_tail"

#: The actions ``LLMEngine._stage_actions`` registers itself.
ENGINE_STAGE_ACTIONS = (STRUCTURE, WEIGHTS, TOKENIZER, KV_INIT, CAPTURE)
#: The fixed actions every Medusa restorer registers on top of the
#: engine's (``VectorizedRestorer.stage_actions``), beside one
#: ``restore_graph[b]`` per captured batch and one ``fetch_chunk[i]`` per
#: manifest chunk.  With :data:`ENGINE_STAGE_ACTIONS` and those two
#: patterns, this is every action name a plan may bind.
RESTORER_STAGE_ACTIONS = (FETCH_ARTIFACT, RESTORE_KV, REPLAY_ALLOC,
                          RESTORE_WARMUP, RESTORE_TAIL)


def restore_graph_stage(batch_size: int) -> str:
    """The per-graph restore stage name for one captured batch size."""
    return f"restore_graph[{batch_size}]"


def fetch_chunk_stage(index: int) -> str:
    """The per-chunk fetch stage name for one manifest chunk index.

    Chunk-streamed plans replace the single ``fetch_artifact`` DISK stage
    with one of these per chunk; foreground instances cover only the
    chunks ``restore_graph[0]`` needs (see
    ``repro.engine.strategies.chunked_medusa_plan``).
    """
    return f"fetch_chunk[{index}]"


#: Match the per-batch restore and per-chunk fetch stage names (for the
#: plan verifier's action names and the serving layer's foreground-fetch
#: accounting).
RESTORE_GRAPH_PATTERN = re.compile(r"^restore_graph\[(\d+)\]$")
FETCH_CHUNK_PATTERN = re.compile(r"^fetch_chunk\[(\d+)\]$")

# ---------------------------------------------------------------------------
# Resources: the engine state a stage reads or writes.  Every stage
# declares its effects over these names (``PlanStage.reads``/``writes``),
# and the plan verifier (``repro.analysis.planlint``) flags concurrent
# stages whose effects conflict.
# ---------------------------------------------------------------------------

#: The materialized artifact (opened/indexed/decompressed in memory).
ARTIFACT = "artifact"
#: The initialized model structure (module tree, parameter shells).
STRUCTURE_STATE = "structure"
#: The weight buffers' contents (H2D-streamed checkpoint tensors).
WEIGHTS_STATE = "weights"
#: The loaded tokenizer.
TOKENIZER_STATE = "tokenizer"
#: The KV cache region.
KV_STATE = "kv"
#: The replayed allocation map (alloc_index -> live buffer).
ALLOC_MAP = "alloc_map"
#: Restored permanent buffer contents / packed kernel parameters (§4.3).
PARAMS = "params"
#: The kernel name -> address table (dlsym / module enumeration, §5).
DRIVER_SYMBOLS = "driver_symbols"
#: The full captured/restored graph set, as one aggregate (eager capture,
#: the monolithic restore tail, ladder recapture).
GRAPHS = "graphs"


def graph_resource(batch_size: int) -> str:
    """The per-batch graph resource (pipelined ``restore_graph`` stages)."""
    return f"graph[{batch_size}]"


def chunk_resource(index: int) -> str:
    """The per-chunk fetched-bytes resource (chunk-streamed fetch stages).

    ``index`` is the chunk's position in its manifest's canonical order
    (see :class:`repro.core.chunks.ChunkManifest`).
    """
    return f"chunk[{index}]"


#: Numerical slack for "these instants coincide" on the critical-path walk.
_EPS = 1e-9


@dataclass(frozen=True)
class PlanStage:
    """One node of a cold-start stage graph.

    ``action`` names the engine-side callable that executes the stage's
    side effects (defaults to the stage name); Medusa's plan binds its
    ``kv_init`` stage to the restorer's ``restore_kv`` action, for example.
    ``required`` stages must have a measured duration; optional stages
    default to zero and still occupy a timeline slot (matching the legacy
    composition's behavior for absent KV/capture durations).
    ``background`` stages run after the instance is already able to serve
    (pipelined restore of non-first batch sizes): they extend
    ``Timeline.total`` but not ``Timeline.ready``, and are excluded from
    the critical path, which is walked back from the ready instant.
    ``reads``/``writes`` declare the stage's effects over the resources
    above (:data:`WEIGHTS_STATE`, :func:`graph_resource`, ...).  They are
    the only statement of what the stage touches: the plan verifier reads
    nothing else, so a stage that declares neither is invisible to its
    race passes.
    """

    name: str
    lane: Lane
    deps: Tuple[str, ...] = ()
    action: str = ""
    required: bool = False
    contention: Optional[Contention] = None
    background: bool = False
    reads: Tuple[str, ...] = ()
    writes: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise EngineError("plan stage needs a non-empty name")
        if not isinstance(self.lane, Lane):
            raise EngineError(
                f"stage {self.name!r}: lane must be a Lane, "
                f"got {self.lane!r}")

    @property
    def action_name(self) -> str:
        """The engine action executing this stage (default: the name)."""
        return self.action or self.name


@dataclass(frozen=True)
class ScheduledStage:
    """One stage placed on the strategy's timeline."""

    name: str
    start: float
    end: float
    lane: str
    critical: bool = False
    background: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Timeline:
    """The composed loading-phase schedule of one cold start.

    A timeline is never mutated once built, so ``__post_init__`` works
    out its per-stage facts once: the name index, :attr:`total`,
    :attr:`ready`, :attr:`has_background`, the end-ordered
    :meth:`stage_events` and their columns (:attr:`event_ends`,
    :attr:`event_durations`, :attr:`event_name_ids`).  Every cold start
    launched from the timeline shares them.
    """

    strategy: Optional[object]
    stages: List[ScheduledStage]
    #: The name of the :class:`LoadPlan` this schedule placed.
    plan: str
    #: Declared dependency edges of the scheduled plan (stage -> deps).
    deps: Dict[str, Tuple[str, ...]]
    _index: Dict[str, ScheduledStage] = field(
        init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        stages = self.stages
        self._index = {stage.name: stage for stage in stages}
        ends = [stage.end for stage in stages]
        self._total = max(ends, default=0.0)
        foreground = [stage.end for stage in stages if not stage.background]
        self._ready = max(foreground) if foreground else self._total
        self._has_background = len(foreground) < len(stages)
        ends = np.array(ends, dtype=np.float64)
        starts = np.array([stage.start for stage in stages], dtype=np.float64)
        #: Every stage's ``end - start``, as :attr:`ScheduledStage.duration`
        #: computes it (:func:`retime_stages` keeps the ones it does not
        #: override).
        self._durations = ends - starts
        timed = np.flatnonzero(self._durations > 0)
        # lexsort is stable: stages that end and start together keep
        # their declaration order.
        positions = timed[np.lexsort((starts[timed], ends[timed]))]
        self._events = tuple(stages[position]
                             for position in positions.tolist())
        #: Each event's end (seconds from launch), in event order.
        self.event_ends = ends[positions]
        #: Each event's duration, in event order.
        self.event_durations = self._durations[positions]
        #: Each event's position in :attr:`stages`: an id for its name,
        #: the same in every timeline placed from one plan.
        self.event_name_ids = positions
        for column in (self._durations, self.event_ends,
                       self.event_durations, self.event_name_ids):
            column.setflags(write=False)

    @property
    def total(self) -> float:
        return self._total

    @property
    def ready(self) -> float:
        """When the instance can serve its first request.

        The makespan over *foreground* stages only: background stages
        (pipelined restore of non-first batch sizes) finish behind the
        serving-ready instant.  Equals :attr:`total` for plans without
        background stages.
        """
        return self._ready

    @property
    def has_background(self) -> bool:
        """True when any stage runs behind the ready instant.

        Pipelined plans restore non-first graphs *after* serving starts;
        the cluster simulator uses this to decide whether an instance's
        early steps contend with a restore tail (``ready < total``).
        """
        return self._has_background

    def stage_events(self) -> Tuple[ScheduledStage, ...]:
        """The stages a cluster cold start runs through, end-ordered.

        Zero-duration stages occupy no simulated time and are left out;
        the rest are returned sorted by completion instant (then start):
        the stage boundaries a pool's cold start can be cancelled at.
        One tuple per timeline, shared by every caller.
        """
        return self._events

    @functools.cached_property
    def _layout(self) -> "_Layout":
        """The stages by position, for :func:`retime_stages`.  A timeline
        the scheduler placed shares its plan's; built on first use
        otherwise."""
        return _Layout([(stage.name, self.deps[stage.name], stage.lane,
                         stage.background) for stage in self.stages])

    def stage(self, name: str) -> ScheduledStage:
        """O(1) lookup by stage name (stages are indexed once)."""
        stage = self._index.get(name)
        if stage is None:
            available = ", ".join(sorted(self._index)) or "<none>"
            raise EngineError(
                f"timeline has no stage {name!r}; available: {available}")
        return stage

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def bubble(self) -> float:
        """Idle time on the critical path between overlapped branches.

        The time between the weight load finishing and its dependent
        *join* stage starting: the branches overlapping the weight
        stream are whatever the scheduled DAG says they are (derived
        from the plan's declared deps), so pipelined plans report
        bubbles the same way the fixed-shape strategies do.
        """
        try:
            weights = self.stage(WEIGHTS)
        except EngineError:
            return 0.0
        joins = [self._index[name] for name, deps in self.deps.items()
                 if WEIGHTS in deps and name in self._index
                 and not self._index[name].background]
        if not joins:
            return 0.0
        return max(0.0, max(s.start for s in joins) - weights.end)


PenaltySource = Union[Mapping[str, float], object]


def _resolve_penalty(penalties: Optional[PenaltySource], key: str) -> float:
    """Resolve a contention penalty key against a cost model or mapping."""
    if penalties is not None:
        resolver = getattr(penalties, "contention_penalty", None)
        if callable(resolver):
            return float(resolver(key))
        if isinstance(penalties, Mapping) and key in penalties:
            return float(penalties[key])
    raise EngineError(
        f"no contention penalty available for key {key!r} "
        f"(pass a CostModel or a mapping containing it)")


@dataclass(frozen=True)
class LoadPlan:
    """A declarative cold-start stage graph for one loading strategy."""

    name: str
    stages: Tuple[PlanStage, ...]
    description: str = ""

    def __post_init__(self) -> None:
        if not self.stages:
            raise EngineError(f"plan {self.name!r} declares no stages")
        seen: Dict[str, PlanStage] = {}
        for stage in self.stages:
            if stage.name in seen:
                raise EngineError(
                    f"plan {self.name!r}: duplicate stage {stage.name!r}")
            for dep in stage.deps:
                if dep == stage.name:
                    raise EngineError(
                        f"plan {self.name!r}: stage {stage.name!r} depends "
                        f"on itself")
                if dep not in seen:
                    raise EngineError(
                        f"plan {self.name!r}: stage {stage.name!r} depends "
                        f"on {dep!r}, which is not declared before it — "
                        f"stages must be listed in a topological (and "
                        f"execution) order")
            seen[stage.name] = stage

    # -- introspection ------------------------------------------------------

    def stage(self, name: str) -> PlanStage:
        """The declared stage named ``name``."""
        for stage in self.stages:
            if stage.name == name:
                return stage
        available = ", ".join(s.name for s in self.stages)
        raise EngineError(
            f"plan {self.name!r} has no stage {name!r}; "
            f"available: {available}")

    def __contains__(self, name: str) -> bool:
        return any(stage.name == name for stage in self.stages)

    def execution_order(self) -> Tuple[PlanStage, ...]:
        """Stages in side-effect execution order (= declaration order).

        Declaration order is validated to be topological, so executing
        stages in this order never runs a stage before its dependencies.
        """
        return self.stages

    # -- scheduling ---------------------------------------------------------

    def schedule(self, durations: Mapping[str, float],
                 penalties: Optional[PenaltySource] = None,
                 strategy: Optional[object] = None) -> Timeline:
        """Place measured stage ``durations`` on the wall clock.

        List-schedules the DAG (:func:`_list_schedule`).  Contention
        declarations extend the affected stage's duration via
        ``penalties`` (a ``CostModel`` or a plain mapping).  Returns a
        :class:`Timeline` whose stages carry lane and critical-path flags.
        """
        missing = [stage.name for stage in self.stages
                   if stage.required and stage.name not in durations]
        if missing:
            raise EngineError(f"missing stage durations: {missing}")

        placed = []
        for stage in self.stages:
            duration = float(durations.get(stage.name, 0.0))
            _check_duration(stage.name, duration)
            if stage.contention is not None \
                    and stage.contention.applies(durations):
                duration += _resolve_penalty(penalties,
                                             stage.contention.penalty_key)
            placed.append(duration)
        return _list_schedule(strategy, self.name, self._layout, placed)

    @functools.cached_property
    def _layout(self) -> "_Layout":
        """The plan's stages by position, built on the first schedule."""
        return _Layout([(stage.name, stage.deps, stage.lane.label,
                         stage.background) for stage in self.stages])


def append_stages(plan: LoadPlan, stages: Sequence[PlanStage],
                  suffix: str = "+degraded") -> LoadPlan:
    """A copy of ``plan`` with ``stages`` chained after its ready frontier.

    Used by the degradation ladder: fallback work (re-profiling, recapture,
    eager capture) lands on the timeline as its own stages, in order, after
    the last *foreground* stage — so the breakdown table and Chrome trace
    show exactly what degraded and what it cost.  Chaining after the ready
    frontier (not ``stages[-1]``) matters on pipelined plans: degradation
    gates serving readiness, so it must not serialize behind background
    restore tails — those queue up behind the fallback work instead.
    Each appended stage keeps its declared lane and effects; only its
    ``deps`` are set, to the stage before it.
    """
    if not stages:
        return plan
    placed = list(plan.stages)
    anchor = max((index for index, stage in enumerate(placed)
                  if not stage.background), default=len(placed) - 1)
    prev = placed[anchor].name
    extra: List[PlanStage] = []
    for stage in stages:
        extra.append(replace(stage, deps=(prev,)))
        prev = stage.name
    placed[anchor + 1:anchor + 1] = extra
    return LoadPlan(plan.name + suffix, tuple(placed),
                    description=plan.description)


def retime_stages(timeline: Timeline,
                  durations: Mapping[str, float]) -> Timeline:
    """A copy of ``timeline`` with several stages' durations replaced.

    The locality placement layer uses this to rewrite the fetch stages:
    the tier an artifact is served from changes how long
    ``fetch_artifact`` (or every ``fetch_chunk[i]`` of a chunk-streamed
    plan) takes.  The timeline's DAG is re-list-scheduled once exactly
    as :meth:`LoadPlan.schedule` would place it (lane serialization
    included), so every dependent stage moves and the overlap structure
    is preserved rather than approximated.  Stages not overridden keep
    their placed durations; returns ``timeline`` itself when no duration
    changes.
    """
    layout = timeline._layout
    placed = timeline._durations.tolist()
    changed = False
    for name, duration in durations.items():
        _check_duration(name, duration)
        position = layout.positions.get(name)
        if position is None:
            timeline.stage(name)    # raises, naming the stages there are
        if abs(duration - placed[position]) > _EPS:
            placed[position] = duration
            changed = True
    if not changed:
        return timeline
    return _list_schedule(timeline.strategy, timeline.plan, layout, placed)


def _check_duration(name: str, duration: float) -> None:
    """Refuse a negative or non-finite stage duration."""
    if not (math.isfinite(duration) and duration >= 0):
        raise EngineError(
            f"stage {name!r} has invalid duration {duration} (must be "
            f"finite and non-negative)")


class _Layout:
    """A stage graph by position: what the list scheduler reads.

    Built once per plan from ``(name, deps, lane, background)`` rows in
    declaration order, and shared by every timeline placed from it (a
    timeline built by hand builds its own on its first retime).
    ``blockers[i]`` holds the positions stage ``i`` waits for: its
    dependencies, then the stage before it on its lane.  A blocker is
    always declared before the stage it blocks, since declaration order
    is topological and lanes fill in that order.
    """

    __slots__ = ("names", "lanes", "background", "blockers", "positions",
                 "deps")

    def __init__(self, rows: Sequence[Tuple[str, Tuple[str, ...], str,
                                            bool]]):
        self.names = tuple(row[0] for row in rows)
        self.lanes = tuple(row[2] for row in rows)
        self.background = tuple(row[3] for row in rows)
        #: Stage name -> position (stage names are unique).
        self.positions = {name: position
                          for position, name in enumerate(self.names)}
        #: The declared edges (stage -> deps) every placed timeline shares.
        self.deps = {name: deps for name, deps, _, _ in rows}
        lane_prev: Dict[str, int] = {}
        blockers = []
        for position, (_, deps, lane, _) in enumerate(rows):
            preds = [self.positions[dep] for dep in deps]
            if lane in lane_prev:
                preds.append(lane_prev[lane])
            lane_prev[lane] = position
            blockers.append(tuple(preds))
        self.blockers = tuple(blockers)


def _list_schedule(strategy: Optional[object], plan: str, layout: _Layout,
                   durations: Sequence[float]) -> Timeline:
    """List-schedule ``layout``'s stages with ``durations`` (by position).

    Each stage starts at the latest end among its blockers (its
    dependencies' completion and its lane's availability), or at zero,
    so each lane runs one stage at a time and overlap is derived, never
    asserted.  Each :class:`ScheduledStage` is built once, with its
    critical-path flag (:func:`_critical_flags`).
    """
    starts: List[float] = []
    ends: List[float] = []
    for blockers, duration in zip(layout.blockers, durations):
        start = 0.0
        for blocker in blockers:
            end = ends[blocker]
            if end > start:
                start = end
        starts.append(start)
        ends.append(start + duration)
    critical = _critical_flags(layout, starts, ends)
    timeline = Timeline(
        strategy,
        [ScheduledStage(*row) for row in zip(
            layout.names, starts, ends, layout.lanes, critical,
            layout.background)],
        plan, layout.deps)
    timeline._layout = layout
    return timeline


def _critical_flags(layout: _Layout, starts: Sequence[float],
                    ends: Sequence[float]) -> List[bool]:
    """Flag every stage lying on a zero-slack chain ending at the makespan.

    A stage's start always equals some blocker's end (a dependency or
    the previous stage on its lane) or zero, so walking those
    exact-coincidence links backward from the stages that end at the
    makespan recovers the critical path(s), whose summed durations equal
    the timeline total by construction.  Blockers precede the stages
    they block, so one backward pass over the positions visits every
    critical stage after all of its successors and finds the whole
    chain.

    Background stages (pipelined restore of non-first batch sizes) are
    neither seeds nor ever critical: the makespan that matters is the
    *ready* instant — the latest foreground end — since everything behind
    it happens while the instance already serves.
    """
    background = layout.background
    foreground = [end for end, behind in zip(ends, background)
                  if not behind]
    makespan = max(foreground) if foreground else max(ends, default=0.0)
    critical = [not behind and abs(end - makespan) <= _EPS
                for end, behind in zip(ends, background)]
    for position in range(len(ends) - 1, -1, -1):
        if not critical[position]:
            continue
        start = starts[position]
        for blocker in layout.blockers[position]:
            if not critical[blocker] and not background[blocker] \
                    and abs(ends[blocker] - start) <= _EPS:
                critical[blocker] = True
    return critical
