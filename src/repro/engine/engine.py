"""The serverless LLM inference engine: cold start, prefill and decode.

``LLMEngine.cold_start()`` runs the five loading-phase stages with real side
effects on a fresh simulated process, measures each stage's simulated
duration, and composes the strategy-specific timeline (sequential for vLLM,
overlapped for vLLM+ASYNC, restore-based for Medusa).  After a cold start
the engine runs eager prefill and graph-replayed (or eager) decode steps;
batching a request stream over them is the pool's
:class:`repro.serverless.instance.Instance`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Optional

import numpy as np

from repro.engine.capture_runner import (
    CaptureArtifacts,
    allocate_graph_io,
    run_capture_stage,
)
from repro.engine.kvcache import (
    KVCacheConfig,
    KVCacheRegion,
    allocate_kv_region,
)
from repro.engine.loadplan import (
    ENGINE_STAGE_ACTIONS,
    LoadPlan,
    Timeline,
    append_stages,
)
from repro.engine.strategies import Strategy, plan_for
from repro.errors import EngineError
from repro.models.config import ModelConfig
from repro.models.kernels_catalog import build_catalog
from repro.models.model import ForwardContext, Model
from repro.models.weights import CheckpointStore
from repro.models.zoo import get_model_config
from repro.simgpu.costmodel import CostModel
from repro.simgpu.kernels import PAYLOAD_DIM
from repro.simgpu.process import CudaProcess, ExecutionMode

@dataclass
class ColdStartReport:
    """Everything the benchmarks need about one cold start."""

    model: str
    strategy: Strategy
    stage_durations: Dict[str, float]
    timeline: Timeline
    runtime_init_time: float
    first_token_time: float
    #: repro.faults.DegradationReport when the restore degraded; None on a
    #: clean cold start (every pre-ladder consumer keeps working unchanged).
    degradation: Optional[object] = None

    @property
    def loading_time(self) -> float:
        return self.timeline.total

    @property
    def ready_time(self) -> float:
        """Loading time until the instance can serve (foreground stages).

        With a pipelined plan the background ``restore_graph`` stages
        finish behind this instant (``ready_time < loading_time``); equal
        to :attr:`loading_time` for plans without background stages.
        """
        return self.timeline.ready

    @property
    def cold_start_time(self) -> float:
        """Full cold start: runtime init + loading + generating first token."""
        return self.runtime_init_time + self.loading_time + self.first_token_time


class LLMEngine:
    """One inference-serving instance over one simulated process."""

    def __init__(self, config, strategy: Strategy = Strategy.VLLM,
                 seed: int = 0,
                 mode: ExecutionMode = ExecutionMode.TIMING,
                 cost_model: Optional[CostModel] = None,
                 checkpoints: Optional[CheckpointStore] = None,
                 capture_batch_sizes=None,
                 plan: Optional[LoadPlan] = None,
                 injector=None):
        """``capture_batch_sizes``: override the batch sizes the capture
        stage covers (a subset of the config's list); None captures all.
        ``plan``: override the strategy's registered LoadPlan (e.g. a
        demonstration ordering from ``repro.engine.strategies``).
        ``injector``: optional ``repro.faults.FaultInjector`` threaded into
        the simulated process/driver (chaos testing)."""
        if isinstance(config, str):
            config = get_model_config(config)
        self.config: ModelConfig = config
        self.capture_batch_sizes = tuple(sorted(capture_batch_sizes)) \
            if capture_batch_sizes is not None else None
        self.strategy = strategy
        self.plan = plan
        self.injector = injector
        self.cost_model = cost_model or CostModel()
        self.kv_config = KVCacheConfig()
        self.checkpoints = checkpoints or CheckpointStore()
        self.catalog = build_catalog(config)
        self.process = CudaProcess(seed=seed, catalog=self.catalog,
                                   cost_model=self.cost_model, mode=mode,
                                   name=f"{config.name}/{strategy.value}",
                                   injector=injector)
        self.model = Model(config, self.process)
        self.kv_region: Optional[KVCacheRegion] = None
        self.kv_bytes: Optional[int] = None
        self.capture_artifacts: Optional[CaptureArtifacts] = None
        self._serving_ctx: Optional[ForwardContext] = None
        self._report: Optional[ColdStartReport] = None

    # ------------------------------------------------------------------
    # Cold start
    # ------------------------------------------------------------------

    def cold_start(self, restorer=None) -> ColdStartReport:
        """Run the loading phase under this engine's LoadPlan.

        The strategy's registered plan (or the constructor's ``plan``
        override) determines which stage actions run, in which order, and
        how they are placed on the timeline — the engine holds no
        per-strategy branching.  ``restorer`` (Medusa only): an object with
        ``stage_actions(engine)`` — provided by :mod:`repro.core.online`,
        which layers on top of the engine.
        """
        if self._report is not None:
            raise EngineError("cold_start() ran already on this engine")
        plan = self.plan or plan_for(self.strategy)
        actions = self._stage_actions(restorer)
        missing = [stage.action_name for stage in plan.stages
                   if stage.action_name not in actions]
        if missing:
            if restorer is None:
                raise EngineError(
                    f"plan {plan.name!r} requires a restorer for stage "
                    f"action(s) {missing} "
                    f"(see repro.core.online.medusa_cold_start)")
            raise EngineError(
                f"plan {plan.name!r} names unknown stage action(s) "
                f"{missing}; available: {sorted(actions)}")
        durations: Dict[str, float] = {}
        for stage in plan.execution_order():
            durations[stage.name] = actions[stage.action_name]()
        degradation = getattr(restorer, "degradation", None)
        if degradation is not None and (degradation.steps
                                        or degradation.failures):
            # Ladder fallbacks (and verification passes) become their own
            # serial timeline stages, so the breakdown/trace name each rung
            # and its latency cost; only a cold start that left the full
            # rung is named ``+degraded``.
            extras = degradation.extra_stages()
            plan = append_stages(
                plan, [stage for stage, _ in extras],
                suffix="+degraded" if degradation.degraded else "")
            for stage, duration in extras:
                durations[stage.name] = duration
        else:
            degradation = None
        timeline = plan.schedule(durations, self.cost_model,
                                 strategy=self.strategy)
        self.process.clock.advance_to(timeline.total)
        self._report = ColdStartReport(
            model=self.config.name,
            strategy=self.strategy,
            stage_durations=durations,
            timeline=timeline,
            runtime_init_time=self.cost_model.runtime_init_time,
            first_token_time=self.cost_model.first_token_extra,
            degradation=degradation,
        )
        return self._report

    @property
    def report(self) -> ColdStartReport:
        if self._report is None:
            raise EngineError("engine has not cold-started yet")
        return self._report

    def _timed(self, stage_fn: Callable[[], None]) -> float:
        start = self.process.clock.now
        stage_fn()
        return self.process.clock.now - start

    def _stage_actions(self, restorer) -> Dict[str, Callable[[], float]]:
        """Action name -> side-effecting callable returning its duration.

        Plans reference these by ``PlanStage.action_name``; a restorer
        contributes its restore actions on top of the engine's own, which
        are named by ``ENGINE_STAGE_ACTIONS`` — the list the plan verifier
        resolves PLN004 bindings against.
        """
        stages = (self._stage_structure_init, self._stage_load_weights,
                  self._stage_load_tokenizer, self._stage_kv_init,
                  self._stage_capture)
        actions: Dict[str, Callable[[], float]] = {
            name: partial(self._timed, stage)
            for name, stage in zip(ENGINE_STAGE_ACTIONS, stages, strict=True)}
        if restorer is not None:
            actions.update(restorer.stage_actions(self))
        return actions

    # -- stage implementations ------------------------------------------------

    def _stage_structure_init(self) -> None:
        self.process.clock.advance(
            self.cost_model.structure_init_time(self.config.param_bytes))
        self.model.initialize_structure()

    def _stage_load_weights(self) -> None:
        # Per-tensor H2D copies advance the clock; the stage duration is
        # their mechanical sum (= param_bytes / h2d_bandwidth).
        self.model.load_weights(self.checkpoints)

    def _stage_load_tokenizer(self) -> None:
        self.process.clock.advance(
            self.cost_model.tokenizer_load_time(self.config.vocab_size))

    def _stage_kv_init(self) -> None:
        """Profiling forwarding, then allocate the KV region (§2.1 ❹)."""
        kv_bytes = self.profile_available_kv_bytes()
        self.adopt_kv_bytes(kv_bytes)

    def profile_available_kv_bytes(self) -> int:
        """Run the profiling forwarding and measure residual free memory.

        Launches a forwarding with the maximum batched tokens against a dummy
        KV region, releases the transient pool, and returns
        ``utilization * total - peak`` — vLLM's sizing rule.
        """
        process = self.process
        max_batch = max(self.config.capture_batch_sizes)
        profile_bytes = max(
            256,
            self.cost_model.kv_profile_tokens * self.config.hidden_size * 2)
        zeros = np.zeros((PAYLOAD_DIM, PAYLOAD_DIM))
        profile_input = process.malloc(profile_bytes, tag="profile_input",
                                       payload=zeros)
        profile_output = process.malloc(profile_bytes, tag="profile_output",
                                        payload=zeros)
        dummy_kv = process.malloc(profile_bytes, tag="profile_kv",
                                  payload=zeros)
        ctx = ForwardContext(profile_input, profile_output, dummy_kv,
                             kv_layer_stride=0)
        self.model.forward(max_batch, self.cost_model.kv_profile_tokens, ctx)
        for buffer in (profile_input, profile_output, dummy_kv):
            process.pool_free(buffer.address)
        process.empty_cache()
        total = self.cost_model.gpu.total_memory_bytes
        usable = int(total * self.kv_config.gpu_memory_utilization)
        kv_bytes = usable - process.allocator.peak_bytes
        if kv_bytes <= 0:
            raise EngineError(
                f"{self.config.name}: no memory left for KV cache "
                f"(peak {process.allocator.peak_bytes} of {usable} usable)")
        return kv_bytes

    def adopt_kv_bytes(self, kv_bytes: int) -> None:
        """Allocate the KV region for ``kv_bytes``."""
        self.process.clock.advance(self.cost_model.kv_block_alloc_time)
        self.kv_bytes = kv_bytes
        self.kv_region = allocate_kv_region(
            self.process, self.config, self.kv_config, kv_bytes)

    def reset_kv_state(self) -> None:
        """Zero the KV region's payload (tests compare fixed-state outputs)."""
        if self.kv_region is None:
            raise EngineError("engine has no KV cache; cold start first")
        self.kv_region.buffer.write(np.zeros((PAYLOAD_DIM, PAYLOAD_DIM)))

    def _stage_capture(self) -> None:
        if self.kv_region is None:
            raise EngineError("capture requires KV cache initialization first")
        sizes = sorted(self.capture_batch_sizes, reverse=True) \
            if self.capture_batch_sizes is not None else None
        self.capture_artifacts = run_capture_stage(
            self.process, self.model, self.kv_region, batch_sizes=sizes)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def serving_context(self) -> ForwardContext:
        if self.kv_region is None:
            raise EngineError("engine has no KV cache; cold start first")
        if self.capture_artifacts is not None:
            return self.capture_artifacts.context(self.kv_region)
        if self._serving_ctx is None:
            graph_input, graph_output = allocate_graph_io(
                self.process, self.config)
            self._serving_ctx = ForwardContext(
                graph_input, graph_output, self.kv_region.buffer,
                self.kv_region.layer_stride)
        return self._serving_ctx

    def padded_batch(self, batch_size: int) -> int:
        """The smallest captured batch size covering ``batch_size``.

        Consults the actually-captured (or restored) graph set when one
        exists — a partially materialized engine may hold fewer batch sizes
        than the config's default capture list.  Under ``DEFERRED`` the
        target is always the configured ladder: uncaptured sizes are
        captured on demand, not padded away.
        """
        if (self.strategy is not Strategy.DEFERRED
                and self.capture_artifacts is not None
                and self.capture_artifacts.execs):
            available = sorted(self.capture_artifacts.execs)
        elif self.capture_batch_sizes is not None:
            available = sorted(self.capture_batch_sizes)
        else:
            available = sorted(self.config.capture_batch_sizes)
        candidates = [b for b in available if b >= batch_size]
        return min(candidates) if candidates else max(available)

    def prefill(self, num_prompt_tokens: int) -> float:
        """Eager prefill of one sequence; returns the simulated duration."""
        start = self.process.clock.now
        self.model.forward(1, num_prompt_tokens,
                           self.serving_context())
        return self.process.clock.now - start

    def decode_step(self, batch_size: int, use_graphs: bool = True) -> float:
        """One decode iteration; graph replay when available.

        Under ``Strategy.DEFERRED`` the graph for an uncaptured batch size is
        warmed up and captured *now*, on the serving path — the §2.4
        alternative whose dispersed latency this models.
        """
        start = self.process.clock.now
        padded = self.padded_batch(batch_size)
        if (use_graphs and self.strategy is Strategy.DEFERRED
                and (self.capture_artifacts is None
                     or padded not in self.capture_artifacts.execs)):
            self._deferred_capture(padded)
        graphs_ready = (self.capture_artifacts is not None
                        and padded in self.capture_artifacts.execs)
        if use_graphs and graphs_ready:
            self.capture_artifacts.execs[padded].replay()
        else:
            self.model.forward(batch_size, batch_size, self.serving_context())
        return self.process.clock.now - start

    def _deferred_capture(self, batch_size: int) -> None:
        from repro.engine.capture_runner import (
            capture_one,
            prepare_capture_stage,
        )
        if self.kv_region is None:
            raise EngineError("deferred capture requires KV initialization")
        if self.capture_artifacts is None:
            self.capture_artifacts = prepare_capture_stage(
                self.process, self.model)
        capture_one(self.process, self.model, self.capture_artifacts,
                    self.kv_region, batch_size)
