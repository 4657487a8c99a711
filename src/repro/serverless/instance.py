"""One serving instance: iteration-level continuous batching.

An instance occupies one GPU.  After its strategy-specific cold start it
serves requests with continuous batching: each iteration admits waiting
requests up to the batch cap (paying their eager prefill), then decodes one
token for every running sequence (graph-replayed when the strategy kept CUDA
graphs).  TTFT is recorded when a request's prefill iteration completes —
the quantity cold starts push into the tail (§7.5).

When launched from a :class:`ColdStartProfile` that carries a scheduled
LoadPlan timeline, the cold start is *stage-granular*: the instance knows
every :class:`repro.engine.loadplan.ScheduledStage` of its restore, becomes
request-ready at ``Timeline.ready`` (not ``total``), pays a contention
penalty on serving steps that overlap the background restore tail, and can
be **cancelled at a stage boundary** by the cluster's scale-down policy
instead of only before launch or after readiness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple
from collections import deque

from repro.engine.strategies import Strategy
from repro.errors import SchedulingError
from repro.serverless.costs import ServingCostModel
from repro.serverless.workload import Request

#: Numerical slack for "these instants coincide" on stage boundaries.
_EPS = 1e-12

#: Fractional slowdown of serving steps that overlap a pipelined
#: restore's background tail: the tail streams graph pools over PCIe and
#: replays restore work on the GPU while the instance already serves, so
#: early steps contend with it.
BACKGROUND_TAIL_PENALTY = 0.15


@dataclass(frozen=True)
class ColdStartProfile:
    """The strategy-agnostic cold-start description the simulator consumes.

    Derived once from a :class:`repro.engine.ColdStartReport` (i.e. from a
    scheduled LoadPlan): the loading-phase latency an instance pays before
    becoming ready, the serving flags the strategy implies, and the
    scheduled stage timeline for per-stage introspection/tracing.  The one
    interface between cold-start plans and the cluster simulation — new
    strategies reach the simulator without touching it.
    """

    loading_time: float
    #: Foreground loading time — when the instance can take its first
    #: request.  With a pipelined restore plan this is earlier than
    #: ``loading_time`` (background graphs finish behind it); 0.0 (legacy
    #: profiles) means "same as loading_time".
    ready_time: float = 0.0
    use_cuda_graphs: bool = True
    deferred_capture: bool = False   # §2.4: capture lazily while serving
    timeline: Optional[object] = None   # repro.engine.Timeline, if known
    # Ladder rung label ("partial"/"recapture"/"eager") when the cold start
    # this profile came from degraded; "" on a clean restore.
    degraded_rung: str = ""

    @classmethod
    def from_report(cls, report) -> "ColdStartProfile":
        """Build the profile from one engine ``ColdStartReport``."""
        strategy = report.strategy
        degradation = getattr(report, "degradation", None)
        degraded_rung = ""
        if degradation is not None and getattr(degradation, "degraded",
                                               False):
            degraded_rung = degradation.rung_name
        return cls(
            loading_time=report.loading_time,
            ready_time=getattr(report, "ready_time", 0.0),
            use_cuda_graphs=strategy.uses_cuda_graphs,
            deferred_capture=strategy is Strategy.DEFERRED,
            timeline=report.timeline,
            degraded_rung=degraded_rung,
        )

    @property
    def serving_ready_time(self) -> float:
        """The cold-start latency the simulator charges before serving."""
        return self.ready_time if self.ready_time > 0 else self.loading_time

    def _fetch_stages(self) -> List:
        """Every scheduled fetch stage: ``fetch_artifact`` and any
        chunk-streamed ``fetch_chunk[i]`` stages (schedule order)."""
        from repro.engine.loadplan import FETCH_ARTIFACT, FETCH_CHUNK_PATTERN
        if self.timeline is None:
            return []
        return [stage for stage in self.timeline.stages
                if stage.name == FETCH_ARTIFACT
                or FETCH_CHUNK_PATTERN.match(stage.name) is not None]

    @property
    def fetch_duration(self) -> float:
        """The scheduled *foreground* artifact-fetch seconds (0.0 when
        absent): the ``fetch_artifact`` stage, or — for chunk-streamed
        plans — the summed non-background ``fetch_chunk[i]`` stages.

        This is the *remote baseline*: plans measure the fetch against
        the flat artifact store, and the placement layer rewrites it per
        tier via :meth:`with_fetch_duration`.
        """
        return sum(stage.duration for stage in self._fetch_stages()
                   if not stage.background)

    def with_fetch_duration(self, duration: float) -> "ColdStartProfile":
        """This profile with its fetch stage(s) retimed.

        The locality placement layer resolves the artifact's storage tier
        at launch and charges the tier's fetch time instead of the plan's
        remote baseline; the timeline is re-scheduled so every dependent
        stage (and therefore readiness, the background tail, and the
        Chrome trace) moves with it.  Chunk-streamed plans scale every
        ``fetch_chunk[i]`` stage — background tail chunks included: the
        whole stream reads from the same tier — by the ratio of
        ``duration`` to the foreground baseline.  Returns ``self``
        unchanged when the profile has no fetch stage or the duration
        already matches.
        """
        from dataclasses import replace

        from repro.engine.loadplan import retime_stages
        base = self.fetch_duration
        if base == 0.0 or duration == base:
            return self
        ratio = duration / base
        overrides = {stage.name: stage.duration * ratio
                     for stage in self._fetch_stages()}
        timeline = retime_stages(self.timeline, overrides)
        loading = max(0.0, self.loading_time
                      + (timeline.total - self.timeline.total))
        ready = self.ready_time
        if ready > 0:
            ready = max(0.0, ready
                        + (timeline.ready - self.timeline.ready))
        return replace(self, loading_time=loading, ready_time=ready,
                       timeline=timeline)


@dataclass(frozen=True)
class InstanceConfig:
    """Sizing of one serverless serving instance."""

    max_running: int = 14       # concurrent sequences per instance
    use_cuda_graphs: bool = True
    deferred_capture: bool = False   # §2.4: capture lazily while serving


@dataclass
class _RunningSequence:
    request: Request
    generated: int = 0
    first_token_time: float = 0.0

    @property
    def context(self) -> int:
        return self.request.prompt_tokens + self.generated

    @property
    def done(self) -> bool:
        return self.generated >= self.request.output_tokens


@dataclass
class CompletedRequest:
    request: Request
    ttft: float
    completion_time: float

    @property
    def latency(self) -> float:
        return self.completion_time - self.request.arrival_time


class Instance:
    """One GPU-backed serving instance inside the cluster simulator."""

    _ids = itertools.count()

    def __init__(self, costs: ServingCostModel, config: InstanceConfig,
                 launched_at: float, cold_start_latency: float,
                 profile: Optional[ColdStartProfile] = None,
                 model_name: str = ""):
        self.instance_id = next(Instance._ids)
        self.costs = costs
        self.config = config
        self.profile = profile       # the cold-start plan trace, if known
        self.model_name = model_name
        self.launched_at = launched_at
        self.ready_at = launched_at + cold_start_latency
        self.waiting: Deque[Request] = deque()
        self.running: List[_RunningSequence] = []
        self.stepping = False
        self.retired = False
        self.hot_spare = False
        # -- placement (set by the pool at launch) ---------------------------
        #: Cluster node(s) this instance's GPU(s) occupy; () when the
        #: simulator runs without the placement layer.
        self.node_ids: Tuple[int, ...] = ()
        #: Storage tier the cold start's artifact was served from ("" for
        #: warm launches and flat placement).
        self.fetch_tier = ""
        self.last_busy_at = self.ready_at
        self.busy_time = 0.0
        self._captured_batches: set = set()
        # -- stage-granular cold start (profile timelines only) -------------
        self.cold_stages: List[object] = []
        self.restore_tail_until = self.ready_at
        self.cancelled = False
        self.cancelled_stage = ""
        self.cold_events: List[object] = []   # kernel Events, set by the pool
        timeline = getattr(profile, "timeline", None) \
            if profile is not None else None
        if cold_start_latency > 0 and timeline is not None \
                and getattr(timeline, "stages", None):
            self.cold_stages = list(timeline.stage_events())
            if timeline.has_background:
                self.restore_tail_until = max(self.ready_at,
                                              launched_at + timeline.total)

    # -- load accounting ----------------------------------------------------

    @property
    def load(self) -> int:
        return len(self.waiting) + len(self.running)

    @property
    def has_work(self) -> bool:
        return bool(self.waiting or self.running)

    def enqueue(self, request: Request) -> None:
        if self.retired:
            raise SchedulingError(
                f"instance {self.instance_id} is retired; cannot enqueue")
        self.waiting.append(request)

    # -- cold-start cancellation ----------------------------------------------

    def cancel_cold_start(self, now: float) -> Optional[Tuple[float, str]]:
        """Abort an in-flight stage-granular cold start.

        The abort takes effect at the earliest stage boundary at or after
        ``now`` that precedes readiness: the stage completing there is the
        last work this instance does; everything later (including the
        ready event) is abandoned, the GPU frees at the boundary, and the
        instance retires.  Returns ``(boundary_time, stage_name)`` on
        success, or ``None`` when the cold start cannot be cancelled —
        already ready/retired, serving work in flight, or a scalar
        (stage-less) cold start, which can only be dropped before launch
        or retired after readiness (the pre-kernel behaviour).
        """
        if self.retired or self.cancelled or now >= self.ready_at - _EPS:
            return None
        if self.running or self.stepping:
            return None
        boundary: Optional[Tuple[float, str]] = None
        for stage in self.cold_stages:
            end = self.launched_at + stage.end
            if end + _EPS >= now and end < self.ready_at - _EPS:
                if boundary is None or end < boundary[0]:
                    boundary = (end, stage.name)
        if boundary is None:
            return None
        self.retired = True
        self.cancelled = True
        self.retired_at = boundary[0]
        self.cancelled_stage = boundary[1]
        return boundary

    # -- one serving iteration ------------------------------------------------

    def run_step(self, now: float) -> "StepResult":
        """Execute one continuous-batching iteration starting at ``now``.

        Returns the step duration plus the TTFTs and completions it produced.
        """
        if not self.has_work:
            raise SchedulingError(
                f"instance {self.instance_id} stepped without work")
        duration = 0.0
        admitted: List[_RunningSequence] = []
        while self.waiting and len(self.running) < self.config.max_running:
            request = self.waiting.popleft()
            duration += self.costs.prefill_time(request.prompt_tokens)
            sequence = _RunningSequence(request=request, generated=1)
            self.running.append(sequence)
            admitted.append(sequence)
        if self.running:
            if self.config.deferred_capture and self.config.use_cuda_graphs:
                padded = self.costs.padded_batch(len(self.running))
                if padded not in self._captured_batches:
                    # §2.4: the capture latency lands on this iteration's
                    # requests instead of on the cold start.
                    duration += self.costs.deferred_capture_penalty(padded)
                    self._captured_batches.add(padded)
            contexts = [seq.context for seq in self.running]
            duration += self.costs.decode_step_time(
                len(self.running), sum(contexts) / len(contexts),
                self.config.use_cuda_graphs)
            for sequence in self.running:
                if sequence not in admitted:
                    sequence.generated += 1
        contention = 0.0
        if duration > 0 and now < self.restore_tail_until - _EPS:
            # The background restore tail is still streaming: early serving
            # contends with it (§7.3's overlap, seen from the serving side).
            contention = duration * BACKGROUND_TAIL_PENALTY
            duration += contention
        end = now + duration
        for sequence in admitted:
            sequence.first_token_time = end
        ttfts = [(seq.request, end - seq.request.arrival_time)
                 for seq in admitted]
        completed = [CompletedRequest(
                        seq.request,
                        ttft=seq.first_token_time - seq.request.arrival_time,
                        completion_time=end)
                     for seq in self.running if seq.done]
        self.running = [seq for seq in self.running if not seq.done]
        self.last_busy_at = end
        self.busy_time += duration
        return StepResult(duration=duration, ttfts=ttfts,
                          completed=completed,
                          background_contention=contention)


@dataclass
class StepResult:
    """Outcome of one continuous-batching iteration."""

    duration: float
    ttfts: List
    completed: List[CompletedRequest]
    #: Extra seconds this step paid for overlapping the restore tail.
    background_contention: float = 0.0
