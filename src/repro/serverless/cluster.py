"""The serverless GPU pool simulator (paper §7.5 and §2.4).

A serverless platform hosts *many* model types behind one GPU pool; an
instance serves exactly one model, so every model needs its own warm
capacity — why the paper calls hot spares unaffordable (§2.4).
:class:`MultiModelCluster` simulates that pool on the :mod:`repro.sim`
kernel: requests tagged with a model, per-model instance sets, one global
GPU bound, per-model plus aggregate metrics.  A single-model run is the
same pool with one deployment
(:class:`repro.serverless.simulator.ClusterSimulator`).
:class:`ModelDeployment` is the one description of a hosted model: its
cold start, its serving flags and its instance sizing; each
:class:`Instance` reads its deployment as its ``config``.

The router sends each request to the least-loaded live instance of its
model and launches a new one when all are saturated and GPUs are free;
it becomes ready after the *strategy-specific cold-start latency* — the
quantity Medusa shrinks.  Each instance holds one GPU.  A deployment
with a :class:`ColdStartProfile` cold-starts stage by stage (each
``ScheduledStage`` is an event), admits requests at ``Timeline.ready``,
and can be cancelled at a stage boundary when another model needs its
GPU.  A request whose model has no instance and no GPU to free waits
until one frees up.  :func:`check_pool` caps the pool at
:data:`MAX_GPUS`, since placement keeps one cache per GPU.

Serving steps that record nothing (no TTFT, no completion, no trace)
are not dispatched one by one: the instance runs through them in one
loop, restore-tail contention included, and the kernel dispatches one
step completion at the end of the run, which an arrival cuts back to the
step in flight (see ``_maybe_step`` and ``_cut_run``).  For that to be
exact, co-timed step completions dispatch in instance order (the
kernel's ``tie``), an order that does not depend on when they were
scheduled.  Each instance counts its own contended steps and seconds;
the pool folds them into its model's metrics once the run is over.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, replace
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.engine.strategies import Strategy
from repro.errors import InvalidValueError, SchedulingError
from repro.serverless.autoscale import AutoscalePolicy, make_autoscaler
from repro.serverless.costs import ServingCostModel
from repro.serverless.instance import ColdStartProfile, Instance
from repro.serverless.metrics import SimulationMetrics
from repro.serverless.placement import (
    TIER_DRAM,
    ChunkFetchSummary,
    FetchResolution,
    fetch_duration,
    make_policy,
)
from repro.serverless.workload import Request, ShareGPTWorkload
from repro.sim import EventLoop


#: The largest pool :func:`check_pool` accepts: placement keeps one node
#: cache per GPU and scans every free node on each launch.
MAX_GPUS = 4096


def check_pool(num_gpus: int, slo_ttft: float) -> None:
    """Refuse a pool with no GPUs or more than :data:`MAX_GPUS`, or a
    TTFT budget that is negative or not finite (0.0 is none; a NaN one
    would quietly turn the SLO off)."""
    if num_gpus <= 0:
        raise InvalidValueError("num_gpus must be positive")
    if num_gpus > MAX_GPUS:
        raise InvalidValueError(
            f"num_gpus must be at most {MAX_GPUS}, got {num_gpus}")
    if not (math.isfinite(slo_ttft) and slo_ttft >= 0):
        raise InvalidValueError(
            f"slo_ttft must be finite and non-negative, got {slo_ttft}")


#: Event kinds, in tie-break (dispatch-priority) order.  IDLE_TICK
#: deliberately sorts *after* every other kind: an arrival, stage
#: completion, or step completion co-timed with an idle re-check always
#: dispatches first, so a request landing at the exact instant a
#: keep-alive window expires reaches the instance before the retirement
#: decision runs — the tie-break is the kernel's ``(time, priority,
#: tie, seq)`` order, not handler luck.  STEP_DONE passes the instance
#: id as ``tie``: co-timed step completions dispatch in instance order,
#: which needs no history, so it is the same whether or not the steps
#: before them were ever scheduled (see ``_maybe_step``).  Every other
#: kind keeps tie 0 and so insertion order.
ARRIVAL = "arrival"
COLD_STAGE_DONE = "cold_stage_done"
INSTANCE_READY = "instance_ready"
STEP_DONE = "step_done"
IDLE_TICK = "idle_tick"
#: STEP_DONE's dispatch priority, which the cut rule compares against.
_STEP_DONE_PRIORITY = 3

#: One artifact's footprint in tier-capacity units — what its residency
#: costs in a node's cache hierarchy.
ARTIFACT_SIZE = 1.0

_EPS = 1e-12


def _track(instance: Instance) -> str:
    """The trace track one instance's events land on."""
    return f"instance-{instance.instance_id}"


@dataclass(frozen=True)
class ModelDeployment:
    """One hosted model on the shared cluster: its cold start, serving
    flags and instance sizing, and the config of each of its instances."""

    name: str
    costs: ServingCostModel
    cold_start_latency: float
    use_cuda_graphs: bool = True
    deferred_capture: bool = False   # §2.4: capture lazily while serving
    hot_spares: int = 0              # §2.4: always-on warm instances
    max_running: int = 14            # per-instance concurrent sequences
    #: Scheduled-LoadPlan cold-start profile; when present, cold starts
    #: are stage-granular (ready at ``Timeline.ready``, cancellable at
    #: stage boundaries) and ``cold_start_latency`` is superseded by
    #: ``profile.serving_ready_time``.
    profile: Optional[ColdStartProfile] = None
    #: Warm (non-spare) instances launched at t=0; together with the hot
    #: spares they are the floor keep-alive retirement never goes below.
    initial_instances: int = 0
    #: Optional ArtifactStore(-like) object whose LRU every cold start
    #: touches with ``get(*artifact_key)``, ``artifact_key = (gpu_name,
    #: model_name)`` (a chunk-backed open; nothing is decoded): a hit caps
    #: the fetch at the DRAM tier's cost and shows up as
    #: store_cache_hits/misses in the metrics.
    artifact_store: Optional[object] = None
    #: The artifact's identity in the store and in the nodes' placement
    #: caches; None keys the caches by ``("model", name)``.
    artifact_key: Optional[Tuple[str, str]] = None
    #: Optional chunk-stream description of the artifact (``ChunkMeta``
    #: -shaped objects with ``digest``/``nbytes``/``foreground``; see
    #: :func:`repro.core.chunks.simulation_chunks`).  When set, cold
    #: starts resolve tier residency chunk by chunk — a node that hosted
    #: a sibling model sharing chunks starts partially warm — and the
    #: metrics gain ``chunk_hits`` / ``bytes_deduped`` /
    #: ``fetch_bytes_foreground``.  None keeps blob-granular fetches.
    chunks: Optional[Tuple[object, ...]] = None

    @classmethod
    def from_report(cls, costs: ServingCostModel, report,
                    **overrides) -> "ModelDeployment":
        """The deployment one cold start describes.

        The scheduled LoadPlan's :class:`ColdStartProfile` gives the
        cold-start latency and the report's strategy the serving flags,
        so no consumer hand-copies per-strategy flags; the deployment is
        named after ``costs``' model, and ``overrides`` set the remaining
        fields (``hot_spares``, ``chunks``, ...).
        """
        profile = ColdStartProfile.from_report(report)
        strategy = report.strategy
        fields = dict(name=costs.config.name, costs=costs,
                      cold_start_latency=profile.serving_ready_time,
                      use_cuda_graphs=strategy.uses_cuda_graphs,
                      deferred_capture=strategy is Strategy.DEFERRED,
                      profile=profile)
        fields.update(overrides)
        return cls(**fields)


@dataclass(frozen=True)
class TaggedRequest:
    """A request bound for one deployment."""

    model: str
    request: Request


def tag_workloads(workloads: Dict[str, ShareGPTWorkload]
                  ) -> List[TaggedRequest]:
    """Merge per-model workloads into one time-ordered arrival stream."""
    tagged: List[TaggedRequest] = []
    for model, workload in workloads.items():
        tagged.extend(TaggedRequest(model, request)
                      for request in workload.generate())
    tagged.sort(key=lambda t: t.request.arrival_time)
    return tagged


class MultiModelCluster:
    """One GPU pool shared by one or more model deployments.

    ``placement`` names the policy that picks nodes and prices artifact
    fetches over each node's tier ladder (see
    :mod:`repro.serverless.placement`; ``"flat"`` is the pre-placement
    pool bit for bit); ``autoscale`` names the policy built once per
    deployment (see :mod:`repro.serverless.autoscale`; ``keep_alive``
    seeds its window); ``slo_ttft`` (0.0 = none) is the TTFT budget the
    metrics and the queue-delay policy use.  ``drain=False`` drops
    arrivals past the horizon.  ``trace=True`` records the run's spans
    and marks on ``loop.trace`` for the Chrome-trace export; off,
    ``loop.trace`` stays empty and no metric reads it either way.
    """

    def __init__(self, deployments: List[ModelDeployment], num_gpus: int,
                 keep_alive: float = 20.0, placement: object = "locality",
                 autoscale: str = "keep-alive", slo_ttft: float = 0.0,
                 drain: bool = True, trace: bool = False):
        check_pool(num_gpus, slo_ttft)
        names = [d.name for d in deployments]
        if len(set(names)) != len(names):
            raise InvalidValueError(f"duplicate deployment names in {names}")
        always_on = sum(d.initial_instances + d.hot_spares
                        for d in deployments)
        if always_on > num_gpus:
            raise InvalidValueError(
                f"initial instances and hot spares across deployments "
                f"({always_on} GPUs) exceed the GPU pool ({num_gpus}) — "
                f"the §2.4 affordability wall")
        self.deployments = {d.name: d for d in deployments}
        self.num_gpus = num_gpus
        self.keep_alive = keep_alive
        self.slo_ttft = slo_ttft
        self.drain = drain
        self.trace = trace
        self._placement_spec = placement
        self._autoscale_spec = autoscale
        self._reset(horizon=0.0)

    def _reset(self, horizon: float) -> None:
        """Fresh per-run state: metrics, instances, policies, event loop.

        Cache residency must not leak across runs, and neither must the
        autoscalers' observed histograms (a caller-supplied placement
        *instance* is reused as-is).  One autoscaler per deployment:
        idle-window prediction is a per-model signal on a shared pool.
        """
        self.horizon = horizon
        self.metrics: Dict[str, SimulationMetrics] = {
            name: SimulationMetrics(horizon=horizon, slo_ttft=self.slo_ttft)
            for name in self.deployments}
        self.instances: Dict[str, List[Instance]] = {
            name: [] for name in self.deployments}
        #: Instance ids count from 0 in every run, so a run's output
        #: (trace track names included) does not depend on earlier pools.
        self._instance_ids = itertools.count()
        #: Requests that found no instance of their model and no GPU to
        #: free, oldest first; re-routed whenever a GPU frees up.
        self._starved: Deque[TaggedRequest] = deque()
        #: ``(deployment, fetch seconds) -> retimed profile``: a run
        #: relaunches each model on few distinct tiers, and re-scheduling
        #: the LoadPlan timeline is the cold launch's main cost.  Profiles
        #: are frozen and their timelines never mutated, so instances
        #: share them as they share the unretimed one.
        self._retimed: Dict[Tuple[str, float], ColdStartProfile] = {}
        self.placement_policy = make_policy(self._placement_spec,
                                            self.num_gpus)
        self.autoscalers: Dict[str, AutoscalePolicy] = {
            name: make_autoscaler(self._autoscale_spec,
                                  keep_alive=self.keep_alive,
                                  slo_ttft=self.slo_ttft)
            for name in self.deployments}
        loop = EventLoop()
        loop.trace.enabled = self.trace
        loop.on(ARRIVAL, self._on_arrival, priority=0)
        loop.on(COLD_STAGE_DONE, self._on_cold_stage_done, priority=1)
        loop.on(INSTANCE_READY, self._on_instance_ready, priority=2)
        loop.on(STEP_DONE, self._on_step_done, priority=_STEP_DONE_PRIORITY)
        loop.on(IDLE_TICK, self._on_idle_recheck, priority=4)
        self.loop = loop

    # -- capacity ------------------------------------------------------------

    def _live_instances(self, model: Optional[str] = None) -> List[Instance]:
        """Non-retired instances, pool-wide or for one ``model``."""
        pools = [self.instances[model]] if model else self.instances.values()
        return [inst for pool in pools for inst in pool if not inst.retired]

    @property
    def gpus_in_use(self) -> int:
        """GPUs occupied by live instances, one each."""
        return len(self._live_instances())

    def _above_floor(self, instance: Instance) -> bool:
        """Whether retiring ``instance`` keeps its model's always-on floor."""
        deployment = self.deployments[instance.model_name]
        return (len(self._live_instances(instance.model_name))
                > deployment.initial_instances + deployment.hot_spares)

    # -- launching -----------------------------------------------------------

    def _launch(self, model: str, now: float, cold: bool = True,
                hot_spare: bool = False) -> Instance:
        """Provision one instance of ``model``'s deployment.

        The placement layer picks the node; for a cold launch the
        resolved tier re-prices the profile's fetch stage before the
        kernel schedules the cold start.
        """
        deployment = self.deployments[model]
        metrics = self.metrics[model]
        node_ids, resolution = self._place(deployment, cold)
        profile, latency = None, 0.0
        if cold:
            profile = self._cold_profile(deployment, resolution)
            latency = profile.serving_ready_time if profile is not None \
                else deployment.cold_start_latency
        instance = Instance(
            config=deployment,
            launched_at=now,
            cold_start_latency=latency,
            profile=profile,
            instance_id=next(self._instance_ids))
        instance.hot_spare = hot_spare
        instance.node_ids = node_ids
        self.instances[model].append(instance)
        if cold:
            metrics.count("cold_starts")
            if profile is not None and profile.degraded_rung:
                metrics.count("degraded_cold_starts")
                metrics.count("degraded_rungs", key=profile.degraded_rung)
            self._record_placement(instance, resolution)
        events = [self.loop.schedule(instance.ready_at, INSTANCE_READY,
                                     instance)]
        for stage in instance.cold_stages:
            events.append(self.loop.schedule(
                instance.launched_at + stage.end, COLD_STAGE_DONE,
                (instance, stage)))
        instance.cold_events = events
        return instance

    def _place(self, deployment: ModelDeployment, cold: bool
               ) -> Tuple[Tuple[int, ...], Optional[FetchResolution]]:
        """Pick the node for one launch and price its artifact fetch.

        Returns ``(node_ids, resolution)``: the one node the instance will
        occupy (empty when none is free) and the policy's
        tier-resolved fetch outcome (None under the flat policy and for
        warm launches — the plan's own fetch duration then stands).  A
        deployment with ``chunks`` resolves the fetch chunk by chunk.
        """
        policy = self.placement_policy
        occupied = {node for inst in self._live_instances()
                    for node in inst.node_ids}
        free = [node for node in range(self.num_gpus)
                if node not in occupied]
        if not free:
            return (), None
        key = deployment.artifact_key or ("model", deployment.name)
        primary = policy.place(free, key) if cold else min(free)
        policy.record_placement(primary)
        nodes = (primary,)
        if not cold:
            return nodes, None
        base_fetch = deployment.profile.fetch_duration \
            if deployment.profile is not None else 0.0
        resolution = policy.resolve_fetch(primary, key, ARTIFACT_SIZE,
                                          base_fetch)
        if deployment.chunks and resolution is not None:
            resolution = self._resolve_chunk_stream(
                primary, deployment.chunks, base_fetch, resolution)
        return nodes, resolution

    def _resolve_chunk_stream(self, node_id: int, chunks: Sequence,
                              base_fetch: float,
                              resolution: FetchResolution
                              ) -> FetchResolution:
        """Re-price one cold start's fetch as a per-chunk stream.

        Each chunk resolves against ``node_id``'s content-addressed chunk
        residency, so sibling models share warmth; the blob resolution
        keeps its node/tier/hit bookkeeping but takes the summed
        foreground chunk seconds and a :class:`ChunkFetchSummary`.  A
        policy that does not track chunks (flat) leaves it untouched.
        """
        total_bytes = float(sum(c.nbytes for c in chunks)) or 1.0
        fg_bytes = float(sum(c.nbytes for c in chunks if c.foreground)) \
            or 1.0
        hits = 0
        bytes_deduped = 0.0
        fetched_fg_bytes = 0.0
        fg_seconds = 0.0
        fg_base = 0.0
        evicted = list(resolution.evicted)
        for chunk in chunks:
            # Foreground chunks split the plan's foreground fetch budget
            # by byte share; background chunks are priced by the same
            # per-byte rate but do not gate readiness.
            per_base = base_fetch * (chunk.nbytes / fg_bytes)
            per_size = ARTIFACT_SIZE * (chunk.nbytes / total_bytes)
            resolved = self.placement_policy.resolve_chunk_fetch(
                node_id, chunk.digest, per_size, per_base)
            if resolved is None:
                return resolution
            if resolved.hit:
                hits += 1
                bytes_deduped += chunk.nbytes
            elif chunk.foreground:
                fetched_fg_bytes += chunk.nbytes
            if chunk.foreground:
                fg_seconds += resolved.duration
                fg_base += per_base
            evicted.extend(resolved.evicted)
        summary = ChunkFetchSummary(
            chunks=len(chunks), hits=hits, bytes_deduped=bytes_deduped,
            foreground_bytes=fetched_fg_bytes,
            foreground_seconds=fg_seconds)
        return replace(resolution, duration=fg_seconds,
                       base_duration=fg_base, evicted=tuple(evicted),
                       chunks=summary)

    def _cold_profile(self, deployment: ModelDeployment,
                      resolution: Optional[FetchResolution]
                      ) -> Optional[ColdStartProfile]:
        """The deployment's profile with its fetch stage(s) re-priced.

        ``resolution`` prices the fetch from the placement layer's cache
        hierarchy.  A hit on the deployment's artifact store (its
        in-memory LRU, touched through ``store.get``, which opens the
        artifact chunk-backed and decodes nothing) independently caps it
        at the DRAM tier's cost — the artifact is already in host memory,
        so the remote fetch must not be charged again.  Returns the
        profile unchanged when there is nothing to rewrite (no timeline,
        no fetch stage, same cost).
        """
        store, key = deployment.artifact_store, deployment.artifact_key
        store_hit = False
        if store is not None and key is not None:
            hits_before = store.cache_hits
            store.get(*key)
            store_hit = store.cache_hits > hits_before
            self.metrics[deployment.name].count(
                "store_cache_hits" if store_hit else "store_cache_misses")
        profile = deployment.profile
        base = profile.fetch_duration if profile is not None else 0.0
        if base <= 0:
            return profile
        duration = base if resolution is None else resolution.duration
        if store_hit:
            duration = min(duration, fetch_duration(TIER_DRAM, base))
        memo = (deployment.name, duration)
        retimed = self._retimed.get(memo)
        if retimed is None:
            retimed = self._retimed[memo] = \
                profile.with_fetch_duration(duration)
        return retimed

    def _record_placement(self, instance: Instance,
                          resolution: Optional[FetchResolution]) -> None:
        """Flow one fetch resolution into metrics and the kernel trace."""
        if resolution is None:
            return
        instance.fetch_tier = resolution.tier
        metrics = self.metrics[instance.model_name]
        if resolution.hit:
            metrics.count("tier_hits", key=resolution.tier)
        else:
            metrics.count("tier_misses")
        metrics.count("fetch_seconds_saved", resolution.seconds_saved)
        now = self.loop.now
        track = _track(instance)
        self.loop.trace.mark(
            "artifact_fetch", now, track=track,
            node=resolution.node_id, tier=resolution.tier,
            hit=resolution.hit,
            seconds=round(resolution.duration, 6))
        if resolution.chunks is not None:
            summary = resolution.chunks
            metrics.count("chunk_hits", summary.hits)
            metrics.count("bytes_deduped", summary.bytes_deduped)
            metrics.count("fetch_bytes_foreground", summary.foreground_bytes)
            self.loop.trace.mark(
                "chunk_fetch", now, track=track,
                node=resolution.node_id, chunks=summary.chunks,
                hits=summary.hits,
                bytes_deduped=round(summary.bytes_deduped, 3),
                foreground_bytes=round(summary.foreground_bytes, 3),
                foreground_seconds=round(summary.foreground_seconds, 6))
        if resolution.promoted is not None:
            metrics.count("tier_promotions", key=resolution.promoted[1])
            self.loop.trace.mark(
                "artifact_promoted", now, track=track,
                node=resolution.node_id,
                from_tier=resolution.promoted[0],
                to_tier=resolution.promoted[1])
        for key, tier in resolution.evicted:
            metrics.count("tier_evictions", key=tier)
            self.loop.trace.mark(
                "artifact_evicted", now, track=track,
                node=resolution.node_id, artifact=list(key), tier=tier)

    # -- routing ---------------------------------------------------------------

    def _route(self, model: str, request: Request, now: float) -> None:
        """Route one arrival within its deployment's capacity."""
        max_running = self.deployments[model].max_running
        # One pass over the live instances, reading each load once: the
        # least (load, ready_at) below capacity, and the least load among
        # the rest.  Strict compares keep the first of equals, as min does.
        best = best_key = shortest = shortest_load = None
        for inst in self.instances[model]:
            if inst.retired:
                continue
            load = inst.load
            if load < max_running:
                key = (load, inst.ready_at)
                if best is None or key < best_key:
                    best, best_key = inst, key
            elif shortest is None or load < shortest_load:
                shortest, shortest_load = inst, load
        if best is not None:
            target = best
        elif self.gpus_in_use < self.num_gpus:
            target = self._launch(model, now)
        elif shortest is not None:
            # Saturated: queue at the shortest backlog.
            target = shortest
        else:
            # Pool exhausted by *other* models and this one has no
            # instance: free a GPU, or wait until one frees up.
            target = self._launch_on_freed_gpu(model, now)
            if target is None:
                self._starved.append(TaggedRequest(model, request))
                return
        if target.run_event is not None:
            self._cut_run(target)
        target.enqueue(request)
        self._maybe_step(target, now)

    def _cut_run(self, instance: Instance) -> None:
        """Cut ``instance``'s silent run back to the step in flight now.

        Stepping one at a time, the step in flight is the first whose
        completion key ``(end, STEP_DONE priority, instance id)`` sorts
        after the key of the event being handled: arrivals, stage ends
        and ready events sort before a co-timed step completion, an idle
        tick after it.  The run's completion event moves to that step's
        end, where the next step admits what is about to be enqueued.
        """
        loop = self.loop
        priority, tie = loop._dispatching[1:3]
        end = instance.cut_run(
            loop.now, (_STEP_DONE_PRIORITY, instance.instance_id)
            < (priority, tie))
        if end is not None:
            loop.cancel(instance.run_event)
            loop.schedule(end, STEP_DONE, (instance, None),
                          tie=instance.instance_id)
        instance.run_event = None

    def _launch_on_freed_gpu(self, model: str,
                             now: float) -> Optional[Instance]:
        """Free one GPU for a zero-capacity model, then launch on it.

        Preference order: retire an idle ready instance of another model;
        else cancel another model's in-flight stage-granular cold start
        at its next stage boundary, provided its queued requests fit on
        its sibling instances — the ServerlessLLM-style "abort a startup
        that another replica makes redundant" decision, possible
        *mid-cold-start* because stages are events.  Hot spares are never
        victims.  Returns None when no GPU can be freed now.
        """
        idle = [instance for pool in self.instances.values()
                for instance in pool
                if (not instance.retired and not instance.has_work
                    and not instance.stepping
                    and not instance.hot_spare)]
        if idle:
            # Which idle instance to retire is a *placement* decision:
            # evicting the node that holds this model's artifact in a warm
            # tier forfeits the residency the launch could have reused.
            # The flat policy picks index 0 — the first-found scan.
            deployment = self.deployments[model]
            nodes = [inst.node_ids[0] if inst.node_ids else None
                     for inst in idle]
            pick = self.placement_policy.choose_victim(
                nodes, deployment.artifact_key or ("model", model))
            victim = idle[pick if 0 <= pick < len(idle) else 0]
            victim.retired = True
            victim.retired_at = now
            return self._launch(model, now)
        return self._preempt_cold_start(model, now)

    def _preempt_cold_start(self, model: str, now: float
                            ) -> Optional[Instance]:
        """Cancel a preemptable cold start and launch ``model`` on its GPU.

        A victim must still be cold-starting with stage boundaries ahead,
        must not be a hot spare, and its model must keep at least one
        other live instance to re-route the victim's queued requests onto
        (they queue deeper there — a tail hit for the victim's model, but
        the zero-capacity model gets served at all).  Among eligible
        victims the one with the most cold-start work remaining (latest
        ready instant) is cancelled: least sunk cost, earliest boundary.
        """
        best: Optional[Instance] = None
        for victim_model, pool in self.instances.items():
            if victim_model == model:
                continue
            for victim in pool:
                if (victim.retired or victim.hot_spare or victim.running
                        or victim.stepping or not victim.cold_stages
                        or now >= victim.ready_at):
                    continue
                if victim.waiting and \
                        len(self._live_instances(victim_model)) < 2:
                    continue   # no sibling to take the victim's queue
                if best is None or victim.ready_at > best.ready_at:
                    best = victim
        if best is None:
            return None
        cancelled = self._cancel_cold_start(best, now,
                                            reason="pool_exhausted")
        if cancelled is None:
            return None
        boundary_time, rerouted = cancelled
        # Claim the victim's GPU *before* re-routing its queue: the new
        # instance's cold start begins at the boundary where the GPU
        # frees, and the re-routed requests must queue on the victim's
        # siblings rather than re-grab the slot being handed over.
        replacement = self._launch(model, boundary_time)
        for request in rerouted:
            self._route(best.model_name, request, now)
        return replacement

    def _serve_starved(self, now: float) -> None:
        """Re-route every waiting starved request, oldest first."""
        waiting, self._starved = self._starved, deque()
        for tagged in waiting:
            self._route(tagged.model, tagged.request, now)

    def _cancel_cold_start(self, instance: Instance, now: float,
                           reason: str
                           ) -> Optional[Tuple[float, List[Request]]]:
        """Abort ``instance``'s cold start at the next stage boundary.

        Cancels every pending event past the boundary, retires the
        instance there, and records the cancellation.  Returns
        ``(boundary_time, queue)`` — the caller re-routes the requests
        that waited on it — or None when the instance refused.
        """
        boundary = instance.cancel_cold_start(now)
        if boundary is None:
            return None
        boundary_time, boundary_stage = boundary
        for event in instance.cold_events:
            if event.time > boundary_time + _EPS:
                self.loop.cancel(event)
        instance.cold_events = []
        metrics = self.metrics[instance.model_name]
        metrics.count("cancelled_cold_starts")
        metrics.count("cancelled_at_stage", key=boundary_stage)
        self.loop.trace.mark("cold_start_cancelled", now,
                             track=_track(instance), stage=boundary_stage,
                             effective_at=boundary_time, reason=reason)
        queue = list(instance.waiting)
        instance.waiting.clear()
        return boundary_time, queue

    # -- event handlers ----------------------------------------------------------

    def _on_arrival(self, event) -> None:
        """Route one arrival (dropped past the horizon unless draining)."""
        tagged = event.payload
        now = self.loop.now
        if not self.drain and now > self.horizon:
            return
        policy = self.autoscalers[tagged.model]
        policy.on_arrival(self, tagged.model, now)
        self._route(tagged.model, tagged.request, now)
        self._apply_scale_up(policy, tagged.model, now)

    def _on_cold_stage_done(self, event) -> None:
        """Account one completed cold-start stage."""
        instance, stage = event.payload
        now = self.loop.now
        metrics = self.metrics[instance.model_name]
        metrics.count("cold_stage_seconds", stage.duration, key=stage.name)
        metrics.count("cold_stage_counts", key=stage.name)
        self.loop.trace.span(
            stage.name, instance.launched_at + stage.start,
            instance.launched_at + stage.end, track=_track(instance),
            lane=stage.lane, background=stage.background,
            critical=stage.critical, cold_start=True)
        if stage.name.startswith("degrade_"):
            # A degradation-ladder rung executed on this cold start: make
            # it visible at cluster level, not only inside the engine.
            self.loop.trace.mark("ladder_rung", now, track=_track(instance),
                                 stage=stage.name)

    def _on_instance_ready(self, event) -> None:
        """An instance finished its foreground cold start: start serving."""
        instance = event.payload
        # Past readiness the cold start cannot be cancelled; its events
        # (whose payload is the instance) are no longer needed.
        instance.cold_events = []
        if instance.retired:
            return
        now = self.loop.now
        self.loop.trace.mark("instance_ready", now, track=_track(instance))
        self._maybe_step(instance, now)
        if not instance.has_work and not instance.stepping \
                and not instance.hot_spare:
            # Ready with nothing queued: start the idle clock so window
            # -enforcing policies retire it even if it never serves.
            self._schedule_idle_tick(self.autoscalers[instance.model_name],
                                     instance, now)
            if self._starved:
                self._serve_starved(now)

    def _on_step_done(self, event) -> None:
        """Record one serving iteration's TTFTs/completions; continue.

        A silent run ends with no result: its steps recorded nothing.
        """
        instance, result = event.payload
        now = self.loop.now
        instance.stepping = False
        instance.run_event = None
        if result is not None:
            metrics = self.metrics[instance.model_name]
            for request, ttft in result.ttfts:
                metrics.record_ttft(
                    ttft, cold_tax=self._cold_tax(instance, request, ttft))
            for completion in result.completed:
                metrics.record_completion(
                    completion.latency,
                    in_horizon=completion.completion_time <= self.horizon)
        self._maybe_step(instance, now)
        self._maybe_retire(instance, now)

    def _on_idle_recheck(self, event) -> None:
        """Re-evaluate retirement for a (possibly no longer) idle instance."""
        instance, stamp = event.payload
        now = self.loop.now
        if (instance.retired or instance.stepping or instance.has_work
                or instance.last_busy_at != stamp):
            return   # stale: the instance served (or died) since arming
        self._maybe_retire(instance, now)

    # -- serving / retirement -------------------------------------------------

    def _maybe_step(self, instance: Instance, now: float) -> None:
        """Start one continuous-batching iteration if the instance can.

        A *silent* step records nothing: it admits nothing, completes
        nothing, and the trace is off (a traced step records a span).
        Restore-tail contention does not make a step loud: the instance
        counts it itself.  After a silent step, the instance runs through
        the pure-decode steps up to its next completion step in one loop
        (:meth:`Instance.run_ahead`), penalizing those that start inside
        the restore tail, and one STEP_DONE is scheduled at the run's end
        instead of one per step.  Nothing outside the instance can
        observe the skipped steps, except an enqueue, and ``_route`` cuts
        the run back to the step in flight before it enqueues
        (``_cut_run``).
        """
        if (instance.stepping or instance.retired
                or now < instance.ready_at or not instance.has_work):
            return
        instance.stepping = True
        result = instance.run_step(now)
        end = now + result.duration
        loop = self.loop
        tie = instance.instance_id
        if loop.trace.enabled:
            loop.trace.span(
                "serve_step", now, end,
                track=_track(instance), admitted=len(result.ttfts),
                completed=len(result.completed),
                contended=result.background_contention > 0)
        elif not (result.ttfts or result.completed):
            run_end = instance.run_ahead(end)
            if run_end is not None:
                instance.run_event = loop.schedule(
                    run_end, STEP_DONE, (instance, None), tie=tie)
                return
        loop.schedule(end, STEP_DONE, (instance, result), tie=tie)

    def _maybe_retire(self, instance: Instance, now: float) -> None:
        """Retire an idle instance once its policy's window expires.

        The decision is delegated to the autoscale policy
        (``should_retire``).  When the policy declines *and* wants the
        window actually enforced (``idle_check_delay``), an
        :data:`IDLE_TICK` is scheduled at the window's expiry — it
        tie-breaks after any co-timed arrival, so a request landing at
        the exact expiry instant always wins.  Either way the instance's
        GPU is now free or evictable, so starved requests get a turn.
        """
        if instance.has_work or instance.stepping or instance.retired:
            return
        if instance.hot_spare:
            return   # §2.4: hot spares stay provisioned (and waste GPUs)
        policy = self.autoscalers[instance.model_name]
        if not policy.should_retire(self, instance, now):
            self._schedule_idle_tick(policy, instance, now)
        elif self._above_floor(instance):
            policy._decide("retire")
            instance.retired = True
            instance.retired_at = now
            self.loop.trace.mark("retired", now, track=_track(instance))
        # Else it is due but holds its model's always-on floor: it stays,
        # with no tick re-armed (a due window would re-fire at once,
        # forever), until it serves again.
        if self._starved:
            self._serve_starved(now)

    # -- autoscale mechanism ---------------------------------------------------

    def _cold_tax(self, instance: Instance, request, ttft: float) -> float:
        """Seconds of one request's TTFT attributable to a cold start.

        The part of the wait spent before the serving instance's ready
        instant: a request admitted by an already-warm instance pays 0.
        """
        return min(ttft, max(0.0, instance.ready_at - request.arrival_time))

    def _schedule_idle_tick(self, policy: AutoscalePolicy,
                            instance: Instance, now: float) -> None:
        """Arm one idle re-check at the policy's requested delay.

        The tick carries the instance's current ``last_busy_at`` as a
        staleness stamp: serving work between scheduling and firing
        advances the stamp, and the stale tick is ignored (the next idle
        period arms its own).
        """
        delay = policy.idle_check_delay(self, instance, now)
        if delay is None:
            return
        policy._decide("idle_tick_armed")
        self.loop.schedule(now + max(0.0, delay), IDLE_TICK,
                           (instance, instance.last_busy_at))

    def _apply_scale_up(self, policy: AutoscalePolicy, model: str,
                        now: float) -> None:
        """Launch cold instances until the policy's target is met.

        Best-effort: stops when the pool has no GPUs left for the model.
        Every proactive launch is counted on the policy and marked in the
        trace.
        """
        target = policy.target_instances(self, model, now)
        if target <= 0:
            return
        while len(self._live_instances(model)) < target \
                and self.gpus_in_use < self.num_gpus:
            instance = self._launch(model, now)
            policy._decide("scale_up")
            self.loop.trace.mark("autoscale_up", now,
                                 track=_track(instance), policy=policy.name)

    # -- main loop -----------------------------------------------------------------

    def run(self, tagged_requests: List[TaggedRequest],
            horizon: float) -> Dict[str, SimulationMetrics]:
        """Simulate the merged arrival stream; returns per-model metrics."""
        return self._simulate(tagged_requests, horizon)

    def _simulate(self, tagged_requests: List[TaggedRequest],
                  horizon: float) -> Dict[str, SimulationMetrics]:
        """One run over a fresh pool, shared by both ``run`` methods.

        Raises :class:`SchedulingError` for a request naming no
        deployment, and when requests are still waiting for a GPU once
        the loop drains — only hot spares (which are never evicted) can
        hold the pool that long.
        """
        self._reset(horizon)
        for name, deployment in self.deployments.items():
            for _ in range(deployment.initial_instances):
                self._launch(name, 0.0, cold=False)
            for _ in range(deployment.hot_spares):
                self._launch(name, 0.0, cold=False, hot_spare=True)
        for tagged in tagged_requests:
            metrics = self.metrics.get(tagged.model)
            if metrics is None:
                raise SchedulingError(
                    f"no deployment for model {tagged.model!r}")
            metrics.arrived += 1
            self.loop.schedule(tagged.request.arrival_time, ARRIVAL, tagged)

        self.loop.run()
        # The handlers are this pool's bound methods: unregistering them
        # keeps pool and loop out of a reference cycle.
        self.loop.close()

        if self._starved:
            raise SchedulingError(
                f"GPU pool exhausted and no instance of "
                f"{self._starved[0].model!r} could launch before the run "
                f"ended; increase num_gpus or lower hot_spares")
        # GPU-time accounting (the §2.4 hot-spares waste argument), and
        # each instance's restore-tail contention, in launch order.
        end_of_run = max(horizon, self.loop.now)
        for model, pool in self.instances.items():
            metrics = self.metrics[model]
            for instance in pool:
                until = getattr(instance, "retired_at", end_of_run)
                metrics.record_instance_lifetime(
                    max(0.0, until - instance.ready_at),
                    instance.busy_time)
                metrics.count("background_contended_steps",
                              instance.contended_steps)
                metrics.count("background_contention_seconds",
                              instance.contention_seconds)
        for model, policy in self.autoscalers.items():
            for kind, count in policy.decisions.items():
                self.metrics[model].count("autoscale_decisions", count,
                                          key=kind)
        return self.metrics

    # -- aggregate view --------------------------------------------------------------

    def aggregate(self) -> SimulationMetrics:
        """Fold every deployment's metrics into one cluster-wide view."""
        total = SimulationMetrics(
            horizon=max((m.horizon for m in self.metrics.values()),
                        default=0.0))
        for metrics in self.metrics.values():
            total.merge(metrics)
        return total
