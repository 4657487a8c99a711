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

After a step that admits and completes nothing, the instance can run
through the pure-decode steps up to its next completion at once
(:meth:`Instance.run_ahead`), read as one slice of its cost model's
decode table with running sums of its step ends, busy time and
restore-tail contention, and go
back to any of them if a request arrives mid-run (:meth:`Instance.
cut_run`, a binary search of those ends), with the same bits as stepping
one by one.  A run that starts inside the restore tail penalizes its
leading steps as :meth:`Instance.run_step` would; the instance counts
its contended steps and seconds itself, in step order, and the pool
folds them into its metrics at the end of the run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.engine import loadplan
from repro.errors import SchedulingError
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
    becoming ready and the scheduled stage timeline for per-stage
    introspection/tracing.  The one interface between cold-start plans
    and the cluster simulation — new strategies reach the simulator
    without touching it.  The serving flags the strategy implies live on
    the deployment (:meth:`repro.serverless.cluster.ModelDeployment.
    from_report`).
    """

    loading_time: float
    #: Foreground loading time — when the instance can take its first
    #: request.  With a pipelined restore plan this is earlier than
    #: ``loading_time`` (background graphs finish behind it); 0.0 (legacy
    #: profiles) means "same as loading_time".
    ready_time: float = 0.0
    timeline: Optional[object] = None   # repro.engine.Timeline, if known
    # Ladder rung label ("partial"/"recapture"/"eager") when the cold start
    # this profile came from degraded; "" on a clean restore.
    degraded_rung: str = ""
    #: Positions in ``timeline.stages`` of every scheduled fetch stage:
    #: ``fetch_artifact`` and any chunk-streamed ``fetch_chunk[i]``
    #: stages, in schedule order.  Found by name on first use, or carried
    #: over from the profile :meth:`with_fetch_duration` retimed.
    _fetch_positions: Optional[Tuple[int, ...]] = field(
        default=None, init=False, repr=False, compare=False)
    #: :attr:`fetch_duration`, summed once from the fetch stages.
    _fetch_seconds: Optional[float] = field(
        default=None, init=False, repr=False, compare=False)

    def _fetch_stages(self) -> Tuple:
        """The scheduled fetch stages, in schedule order."""
        stages = getattr(self.timeline, "stages", ())
        positions = self._fetch_positions
        if positions is None:
            positions = tuple(
                position for position, stage in enumerate(stages)
                if stage.name == loadplan.FETCH_ARTIFACT
                or loadplan.FETCH_CHUNK_PATTERN.match(stage.name)
                is not None)
            object.__setattr__(self, "_fetch_positions", positions)
        return tuple(stages[position] for position in positions)

    @classmethod
    def from_report(cls, report) -> "ColdStartProfile":
        """Build the profile from one engine ``ColdStartReport``."""
        degradation = getattr(report, "degradation", None)
        degraded_rung = ""
        if degradation is not None and getattr(degradation, "degraded",
                                               False):
            degraded_rung = degradation.rung_name
        return cls(
            loading_time=report.loading_time,
            ready_time=getattr(report, "ready_time", 0.0),
            timeline=report.timeline,
            degraded_rung=degraded_rung,
        )

    @property
    def serving_ready_time(self) -> float:
        """The cold-start latency the simulator charges before serving."""
        return self.ready_time if self.ready_time > 0 else self.loading_time

    @property
    def fetch_duration(self) -> float:
        """The scheduled *foreground* artifact-fetch seconds (0.0 when
        absent): the ``fetch_artifact`` stage, or — for chunk-streamed
        plans — the summed non-background ``fetch_chunk[i]`` stages.

        This is the *remote baseline*: plans measure the fetch against
        the flat artifact store, and the placement layer rewrites it per
        tier via :meth:`with_fetch_duration`.
        """
        seconds = self._fetch_seconds
        if seconds is None:
            seconds = sum(stage.duration for stage in self._fetch_stages()
                          if not stage.background)
            object.__setattr__(self, "_fetch_seconds", seconds)
        return seconds

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
        base = self.fetch_duration
        if base == 0.0 or duration == base:
            return self
        ratio = duration / base
        overrides = {stage.name: stage.duration * ratio
                     for stage in self._fetch_stages()}
        timeline = loadplan.retime_stages(self.timeline, overrides)
        loading = max(0.0, self.loading_time
                      + (timeline.total - self.timeline.total))
        ready = self.ready_time
        if ready > 0:
            ready = max(0.0, ready
                        + (timeline.ready - self.timeline.ready))
        retimed = replace(self, loading_time=loading, ready_time=ready,
                          timeline=timeline)
        # Retiming moves stages but keeps their order.
        object.__setattr__(retimed, "_fetch_positions",
                           self._fetch_positions)
        return retimed


class _RunningSequence:
    """One admitted request and the instance step at which it finishes.

    A sequence admitted at step ``s`` has generated one token by the end
    of ``s`` and one more every later step, so it is done at the end of
    step ``s + max(output_tokens - 1, 0)``; its context then is
    ``prompt_tokens + max(output_tokens, 1)`` tokens.
    """

    __slots__ = ("request", "first_token_time", "finish_step",
                 "final_context")

    def __init__(self, request: Request, step: int):
        self.request = request
        self.first_token_time = 0.0
        output = request.output_tokens
        self.finish_step = step + max(output - 1, 0)
        self.final_context = request.prompt_tokens + max(output, 1)


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

    def __init__(self, config: "ModelDeployment", launched_at: float,
                 cold_start_latency: float,
                 profile: Optional[ColdStartProfile] = None,
                 instance_id: int = 0):
        #: The deployment this instance serves: its model (``name``,
        #: ``costs``), batch cap (``max_running``) and serving flags
        #: (``use_cuda_graphs``, ``deferred_capture``).
        self.config = config
        #: Launch order within the owning pool (its trace track and its
        #: tie-break among same-time step events).
        self.instance_id = instance_id
        self.costs = config.costs
        self.profile = profile       # the cold-start plan trace, if known
        self.model_name = config.name
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
        #: Serving steps that overlapped the background restore tail, and
        #: the extra seconds they paid for it, summed in step order.
        self.contended_steps = 0
        self.contention_seconds = 0.0
        self._captured_batches: set = set()
        # -- decode bookkeeping (see run_step) -------------------------------
        self._steps = 0                  # index of the next serving step
        self._context_sum = 0            # sum of running sequences' contexts
        #: finish step -> sequences finishing there, in admission order.
        self._finishing: Dict[int, List[_RunningSequence]] = {}
        #: The latest silent run (see run_ahead); it can be cut only
        #: while its end event is pending.
        self._run: Optional[Tuple[int, int, int, np.ndarray, np.ndarray,
                                  int, Optional[np.ndarray]]] = None
        #: The pending kernel event that ends a silent run, else None;
        #: set and cleared by the pool.
        self.run_event: Optional[object] = None
        # -- stage-granular cold start (profile timelines only) -------------
        #: The timeline's end-ordered stage events, shared with every
        #: instance launched from it (:meth:`Timeline.stage_events`).
        self.cold_stages: Tuple = ()
        self.restore_tail_until = self.ready_at
        self.cancelled = False
        #: The kernel event of the ready instant, set by the pool and
        #: dropped once the cold start can no longer be cancelled.
        self.ready_event: Optional[object] = None
        timeline = getattr(profile, "timeline", None) \
            if profile is not None else None
        if cold_start_latency > 0 and timeline is not None \
                and getattr(timeline, "stages", None):
            self.cold_stages = timeline.stage_events()
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
        return boundary

    # -- one serving iteration ------------------------------------------------

    def run_step(self, now: float) -> "StepResult":
        """Execute one continuous-batching iteration starting at ``now``.

        Returns the step duration plus the TTFTs and completions it produced.
        A step costs O(1 + admitted + completed): the running context sum
        is kept as an exact integer, its decode time is read from the
        batch's decode table at that sum (:meth:`ServingCostModel.
        decode_step_at`), and each sequence waits in the bucket of the
        step it finishes at, in admission (= ``running``) order.
        """
        running = self.running
        waiting = self.waiting
        if not (waiting or running):
            raise SchedulingError(
                f"instance {self.instance_id} stepped without work")
        step = self._steps
        self._steps = step + 1
        costs = self.costs
        config = self.config
        context_sum = self._context_sum
        carried = batch = len(running)
        duration = 0.0
        admitted: List[_RunningSequence] = []
        finishing = self._finishing
        while waiting and batch < config.max_running:
            request = waiting.popleft()
            duration += costs.prefill_time(request.prompt_tokens)
            sequence = _RunningSequence(request, step)
            running.append(sequence)
            admitted.append(sequence)
            context_sum += request.prompt_tokens + 1
            finishing.setdefault(sequence.finish_step, []).append(sequence)
            batch += 1
        if batch:
            if config.deferred_capture and config.use_cuda_graphs:
                padded = costs.padded_batch(batch)
                if padded not in self._captured_batches:
                    # §2.4: the capture latency lands on this iteration's
                    # requests instead of on the cold start.
                    duration += costs.deferred_capture_penalty(padded)
                    self._captured_batches.add(padded)
            duration += costs.decode_step_at(batch, context_sum,
                                             config.use_cuda_graphs)
            # Every sequence admitted before this step generated a token.
            context_sum += carried
        contention = 0.0
        if duration > 0 and now < self.restore_tail_until - _EPS:
            # The background restore tail is still streaming: early serving
            # contends with it (§7.3's overlap, seen from the serving side).
            contention = duration * BACKGROUND_TAIL_PENALTY
            duration += contention
            self.contended_steps += 1
            self.contention_seconds += contention
        end = now + duration
        ttfts = []
        for sequence in admitted:
            sequence.first_token_time = end
            ttfts.append((sequence.request,
                          end - sequence.request.arrival_time))
        completed = []
        done = finishing.pop(step, None)
        if done is not None:
            for sequence in done:
                request = sequence.request
                completed.append(CompletedRequest(
                    request,
                    ttft=sequence.first_token_time - request.arrival_time,
                    completion_time=end))
                context_sum -= sequence.final_context
            self.running = [sequence for sequence in running
                            if sequence.finish_step != step]
        self._context_sum = context_sum
        self.last_busy_at = end
        self.busy_time += duration
        return StepResult(duration, ttfts, completed, contention)

    # -- silent runs ----------------------------------------------------------

    def run_ahead(self, start: float) -> Optional[float]:
        """Run the pure-decode steps that follow a silent step.

        Call right after a :meth:`run_step` that admitted and completed
        nothing; ``start`` is its end.  Until the next completion step
        the batch cannot change: admission needs a free slot and a
        waiting request, and only a completion frees a slot or an
        :meth:`enqueue` adds a request (the pool cuts the run with
        :meth:`cut_run` before it enqueues).  The batch's padded size is
        already captured.  Those steps' durations, up to the next
        completion step, are one read-only slice of the batch's decode
        table (:meth:`ServingCostModel.decode_run`).  When the run starts
        inside the restore tail, the steps that start before its end (a
        prefix: later steps start later) are penalized with
        :meth:`run_step`'s two operations, and one ``searchsorted`` over
        their starts finds that prefix; the penalized durations go into
        the running-sum buffer, never into the table.  The step ends,
        busy sums and contention sums are sequential running sums
        (``np.cumsum``) that add every float in :meth:`run_step`'s order,
        so the state after them is bit for bit what stepping one at a
        time leaves.

        Returns the end of the run's last step, or None when the next
        step completes a sequence (there is nothing to run ahead).
        """
        step = self._steps
        count = min(self._finishing) - step
        if count <= 0:
            return None
        batch = len(self.running)
        context = self._context_sum
        durations = self.costs.decode_run(batch, context, count,
                                          self.config.use_cuda_graphs)
        # ends[j] and busy[j]: the instant step j of the run ends and the
        # busy time by then; index 0 is the silent step that started it.
        sums = np.empty(count + 1)
        sums[0] = start
        contended = self.contended_steps
        contention = None
        if start < self.restore_tail_until - _EPS:
            extra = durations * BACKGROUND_TAIL_PENALTY
            sums[1:] = durations + extra
            # Where each step starts if every step before it contends:
            # exact for the contended prefix and the step right after it.
            prefix = int(sums.cumsum()[:count].searchsorted(
                self.restore_tail_until - _EPS))
            sums[prefix + 1:] = durations[prefix:]
            # contention[j]: the contention seconds by the end of step j.
            contention = np.empty(prefix + 1)
            contention[0] = self.contention_seconds
            contention[1:] = extra[:prefix]
            contention = contention.cumsum()
            self.contended_steps = contended + prefix
            self.contention_seconds = float(contention[-1])
        else:
            sums[1:] = durations
        ends = sums.cumsum()
        sums[0] = self.busy_time
        busy = sums.cumsum()
        self._run = (step, context, batch, ends, busy, contended, contention)
        self._steps = step + count
        self._context_sum = context + count * batch
        # Python floats: numpy scalars would leak into summaries and
        # change their reprs.
        self.busy_time = float(busy[-1])
        self.last_busy_at = end = float(ends[-1])
        return end

    def cut_run(self, now: float, ended_at_now: bool) -> Optional[float]:
        """Cut the run in flight back to its step in flight at ``now``.

        ``ended_at_now`` says whether a step ending exactly at ``now`` has
        completed by now (its completion event sorts before the event
        being handled); the search side follows it, as ``bisect_right``
        or ``bisect_left`` would.  The state goes back to the end of the
        step in flight, from the run's recorded ends, busy sums and
        contention sums (as Python floats); ``_steps``, the context sum
        and the contended steps are exact integers.  Returns that step's
        end, or None when it is the run's last step (nothing to cut).
        Either way the run is over: a later cut would find the same step.
        """
        step, context, batch, ends, busy, contended, contention = self._run
        index = int(ends.searchsorted(now,
                                      "right" if ended_at_now else "left"))
        if index >= len(ends) - 1:
            return None
        self._steps = step + index
        self._context_sum = context + index * batch
        self.busy_time = float(busy[index])
        if contention is not None and index < len(contention) - 1:
            # The cut lands inside the contended prefix.
            self.contended_steps = contended + index
            self.contention_seconds = float(contention[index])
        self.last_busy_at = end = float(ends[index])
        return end

    def run_steps(self) -> Tuple[List[float], int]:
        """The latest run's step ends up to any cut (step ``j`` spans
        ``ends[j]..ends[j + 1]``) and how many leading steps contended;
        call before the next step."""
        step, ends, contention = self._run[0], self._run[3], self._run[6]
        ends = ends[:self._steps - step + 1].tolist()
        return ends, 0 if contention is None else len(contention) - 1


class StepResult:
    """Outcome of one continuous-batching iteration."""

    __slots__ = ("duration", "ttfts", "completed", "background_contention")

    def __init__(self, duration: float, ttfts: List,
                 completed: List[CompletedRequest],
                 background_contention: float = 0.0):
        self.duration = duration
        self.ttfts = ttfts
        self.completed = completed
        #: Extra seconds this step paid for overlapping the restore tail.
        self.background_contention = background_contention
