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

import math
import re
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

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
    """The composed loading-phase schedule of one cold start."""

    strategy: Optional[object]
    stages: List[ScheduledStage]
    #: The name of the :class:`LoadPlan` this schedule placed.
    plan: str
    #: Declared dependency edges of the scheduled plan (stage -> deps).
    deps: Dict[str, Tuple[str, ...]]
    _index: Dict[str, ScheduledStage] = field(
        init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        self._index = {stage.name: stage for stage in self.stages}

    @property
    def total(self) -> float:
        return max((stage.end for stage in self.stages), default=0.0)

    @property
    def ready(self) -> float:
        """When the instance can serve its first request.

        The makespan over *foreground* stages only: background stages
        (pipelined restore of non-first batch sizes) finish behind the
        serving-ready instant.  Equals :attr:`total` for plans without
        background stages.
        """
        foreground = [s.end for s in self.stages if not s.background]
        if not foreground:
            return self.total
        return max(foreground)

    @property
    def has_background(self) -> bool:
        """True when any stage runs behind the ready instant.

        Pipelined plans restore non-first graphs *after* serving starts;
        the cluster simulator uses this to decide whether an instance's
        early steps contend with a restore tail (``ready < total``).
        """
        return any(stage.background for stage in self.stages)

    def stage_events(self) -> List[ScheduledStage]:
        """The stages a cluster cold start runs through, end-ordered.

        Zero-duration stages occupy no simulated time and are left out;
        the rest are returned sorted by completion instant: the stage
        boundaries a pool's cold start can be cancelled at.
        """
        return sorted((stage for stage in self.stages
                       if stage.duration > 0),
                      key=lambda stage: (stage.end, stage.start))

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

        rows = []
        for stage in self.stages:
            duration = float(durations.get(stage.name, 0.0))
            _check_duration(stage.name, duration)
            if stage.contention is not None \
                    and stage.contention.applies(durations):
                duration += _resolve_penalty(penalties,
                                             stage.contention.penalty_key)
            rows.append((stage.name, stage.deps, stage.lane.label,
                         stage.background, duration))
        return _list_schedule(strategy, self.name, rows)


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
    overrides: Dict[str, float] = {}
    for name, duration in durations.items():
        _check_duration(name, duration)
        if abs(duration - timeline.stage(name).duration) > _EPS:
            overrides[name] = duration
    if not overrides:
        return timeline
    return _list_schedule(
        timeline.strategy, timeline.plan,
        [(stage.name, timeline.deps[stage.name], stage.lane,
          stage.background, overrides.get(stage.name, stage.duration))
         for stage in timeline.stages])


def _check_duration(name: str, duration: float) -> None:
    """Refuse a negative or non-finite stage duration."""
    if not (math.isfinite(duration) and duration >= 0):
        raise EngineError(
            f"stage {name!r} has invalid duration {duration} (must be "
            f"finite and non-negative)")


def _list_schedule(strategy: Optional[object], plan: str,
                   stages: Sequence[Tuple[str, Tuple[str, ...], str,
                                          bool, float]]) -> Timeline:
    """List-schedule ``(name, deps, lane, background, duration)`` rows.

    Rows come in declaration (topological) order.  Each stage starts at
    the later of its dependencies' completion and its lane's
    availability, so each lane runs one stage at a time and overlap is
    derived, never asserted.
    """
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
    return Timeline(strategy, _mark_critical(placed, blockers), plan,
                    {name: deps for name, deps, _, _, _ in stages})


def _mark_critical(placed: Sequence[ScheduledStage],
                   blockers: Mapping[str, Tuple[str, ...]]
                   ) -> List[ScheduledStage]:
    """Flag every stage lying on a zero-slack chain ending at the makespan.

    A stage's start always equals some blocking predecessor's end (a
    dependency or the previous stage on its lane) or zero, so walking those
    exact-coincidence links backward from the stages that end at the
    makespan recovers the critical path(s), whose summed durations equal
    the timeline total by construction.

    Background stages (pipelined restore of non-first batch sizes) are
    neither seeds nor ever critical: the makespan that matters is the
    *ready* instant — the latest foreground end — since everything behind
    it happens while the instance already serves.
    """
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
