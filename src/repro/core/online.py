"""The online phase: restore instead of profile/capture (paper §3, §4.2, §5).

Plugged into :meth:`repro.engine.engine.LLMEngine.cold_start` for
``Strategy.MEDUSA``.  :func:`prepare_medusa_cold_start` builds the engine
and the one restorer, :class:`repro.core.fastpath.VectorizedRestorer`
(KV restore, allocation replay, first-layer warm-up with triggering
kernels, and graph restore by one pointer gather per graph).  Every input
kind runs that restorer; an eager artifact is packed into arrays on entry.
The input and the hooks pick the LoadPlan:

================================== =====================
input                              plan
================================== =====================
eager artifact, or any active hook ``medusa`` (monolithic restore tail)
``.npz`` ``LazyArtifact``          ``medusa-pipelined``
chunk-backed artifact              ``medusa-chunked``
================================== =====================

A :class:`~repro.faults.FaultInjector` or
:class:`~repro.faults.DegradationPolicy` keeps the monolithic plan, on
whose tail the degradation ladder resolves.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.binfmt import LazyArtifact
# resolve_kernel_addresses is re-exported: bench/tracing.py wraps it here.
from repro.core.fastpath import (  # noqa: F401
    VectorizedRestorer,
    resolve_kernel_addresses,
)
from repro.engine.engine import ColdStartReport, LLMEngine
from repro.engine.kvcache import KVCacheConfig
from repro.engine.strategies import (
    Strategy,
    chunked_medusa_plan,
    pipelined_medusa_plan,
)
from repro.errors import RestorationError
from repro.faults.ladder import DegradationPolicy
from repro.models.zoo import get_model_config
from repro.simgpu.costmodel import CostModel
from repro.simgpu.process import ExecutionMode

#: The restorer under its historical name.
OnlineRestorer = VectorizedRestorer


def prepare_medusa_cold_start(config, artifact, seed: int = 1,
                              mode: ExecutionMode = ExecutionMode.TIMING,
                              cost_model: Optional[CostModel] = None,
                              kv_config: Optional[KVCacheConfig] = None,
                              checkpoints=None, injector=None,
                              policy: Optional[DegradationPolicy] = None):
    """Build the (engine, restorer) pair for one Medusa cold start.

    ``artifact`` may be an eager :class:`MaterializedModel` or a
    :class:`repro.core.binfmt.LazyArtifact`; the plan follows the input
    (see the module docstring): an eager artifact, an active
    :class:`~repro.faults.FaultInjector` or a
    :class:`~repro.faults.DegradationPolicy` gets the monolithic
    ``medusa`` plan, a chunk-backed artifact the chunk-streamed plan, and
    any other lazy artifact the pipelined plan over its batch sizes.

    Exposed separately from :func:`medusa_cold_start` so callers (the
    wall-clock bench, plan lint) can use the pair before running
    ``engine.cold_start(restorer=...)``.
    """
    if isinstance(config, str):
        config = get_model_config(config)
    if artifact.model_name != config.name:
        raise RestorationError(
            f"artifact is for {artifact.model_name}, engine wants {config.name}")
    hooked = (injector is not None and injector.active) or policy is not None
    manifest = getattr(artifact, "chunk_manifest", None)
    if hooked or not isinstance(artifact, LazyArtifact):
        plan = None     # the strategy's registered monolithic plan
    elif manifest is not None:
        # Chunk-backed lazy artifact: stream fetches per chunk, with only
        # the first graph's chunks in the foreground.
        plan = chunked_medusa_plan(manifest)
    else:
        plan = pipelined_medusa_plan(artifact.batches)
    engine = LLMEngine(config, Strategy.MEDUSA, seed=seed, mode=mode,
                       cost_model=cost_model, kv_config=kv_config,
                       checkpoints=checkpoints, plan=plan, injector=injector)
    # Artifacts are keyed by <GPU type, model type> (§3): the profiled KV
    # memory and graph structure are only valid on the GPU they came from.
    if artifact.gpu_name != engine.cost_model.gpu.name:
        raise RestorationError(
            f"artifact was materialized on {artifact.gpu_name!r}, this "
            f"engine runs on {engine.cost_model.gpu.name!r} — the offline "
            f"phase is per <GPU type, model type> (§3)")
    restorer = VectorizedRestorer(artifact, injector=injector, policy=policy)
    return engine, restorer


def medusa_cold_start(config, artifact, seed: int = 1,
                      mode: ExecutionMode = ExecutionMode.TIMING,
                      cost_model: Optional[CostModel] = None,
                      kv_config: Optional[KVCacheConfig] = None,
                      checkpoints=None, injector=None,
                      policy: Optional[DegradationPolicy] = None
                      ) -> Tuple[LLMEngine, ColdStartReport]:
    """One Medusa cold start: fresh process, restore-based loading phase.

    ``injector`` threads a :class:`repro.faults.FaultInjector` through the
    process/driver and the restorer; ``policy`` opts the restorer into the
    graceful-degradation ladder (see :mod:`repro.faults.ladder`).
    ``artifact`` may be eager or a :class:`~repro.core.binfmt.LazyArtifact`
    (see :func:`prepare_medusa_cold_start` for the plan each one gets).
    """
    engine, restorer = prepare_medusa_cold_start(
        config, artifact, seed=seed, mode=mode, cost_model=cost_model,
        kv_config=kv_config, checkpoints=checkpoints, injector=injector,
        policy=policy)
    report = engine.cold_start(restorer=restorer)
    return engine, report


def cold_start_for(config, strategy: Strategy, artifact=None, seed: int = 0,
                   **engine_kwargs) -> Tuple[LLMEngine, ColdStartReport]:
    """One cold start under any strategy; returns ``(engine, report)``.

    The single entry point the CLI (and tooling) routes every strategy
    through: ``MEDUSA`` requires a :class:`MaterializedModel` ``artifact``
    and goes through :func:`medusa_cold_start`; every other strategy runs
    a plain :class:`LLMEngine` cold start.
    """
    if strategy is Strategy.MEDUSA:
        if artifact is None:
            raise RestorationError(
                "Strategy.MEDUSA requires a materialized artifact "
                "(run the offline phase first)")
        return medusa_cold_start(config, artifact, seed=seed,
                                 **engine_kwargs)
    engine = LLMEngine(config, strategy, seed=seed, **engine_kwargs)
    return engine, engine.cold_start()
