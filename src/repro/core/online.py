"""The online phase: restore instead of profile/capture (paper §3, §4.2, §5).

Plugged into :meth:`repro.engine.engine.LLMEngine.cold_start` for
``Strategy.MEDUSA``.  :func:`prepare_medusa_cold_start` builds the engine
and the one restorer, :class:`repro.core.fastpath.VectorizedRestorer`
(KV restore, allocation replay, first-layer warm-up with triggering
kernels, and graph restore by one pointer gather per graph).  Every input
kind runs that restorer on the packed tables.  Where the input came
from, and nothing else, picks the LoadPlan:

================================== =====================
input                              plan
================================== =====================
in memory (``path is None``: the   ``medusa`` (monolithic restore tail)
offline output)
an artifact file (``open_binary``) ``medusa-pipelined``
a store (``ArtifactStore.get``)    ``medusa-chunked``
================================== =====================

A fault plan in scope (``with repro.faults.injecting(fi):``) or a
:class:`~repro.faults.DegradationPolicy` runs on whichever plan that is:
the degradation ladder resolves after the plan's last graph action.
"""

from __future__ import annotations

from typing import Optional, Tuple

# resolve_kernel_addresses is re-exported: bench/tracing.py wraps it here.
from repro.core.fastpath import (  # noqa: F401
    VectorizedRestorer,
    resolve_kernel_addresses,
)
from repro.engine.engine import ColdStartReport, LLMEngine
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
from repro.utils.collector import cyclic_gc_paused

#: The restorer under its historical name.
OnlineRestorer = VectorizedRestorer


def prepare_medusa_cold_start(config, artifact, seed: int = 1,
                              mode: ExecutionMode = ExecutionMode.TIMING,
                              cost_model: Optional[CostModel] = None,
                              policy: Optional[DegradationPolicy] = None):
    """Build the (engine, restorer) pair for one Medusa cold start.

    The plan follows the packed ``artifact`` alone (see the module
    docstring): an in-memory one gets the monolithic ``medusa`` plan; of
    the chunk-backed ones, as their opener recorded
    (``fetch_per_chunk``), a store's gets the chunk-streamed plan and a
    file's the pipelined plan over its batch sizes.

    Exposed separately from :func:`medusa_cold_start` so callers (the
    wall-clock bench, plan lint) can use the pair before running
    ``engine.cold_start(restorer=...)``.
    """
    if isinstance(config, str):
        config = get_model_config(config)
    if artifact.path is None:
        plan = None     # the strategy's registered monolithic plan
    elif artifact.fetch_per_chunk:
        # A store: stream fetches per chunk, with only the first graph's
        # chunks in the foreground.
        plan = chunked_medusa_plan(artifact.chunk_manifest)
    else:
        plan = pipelined_medusa_plan(artifact.batches)
    engine = LLMEngine(config, Strategy.MEDUSA, seed=seed, mode=mode,
                       cost_model=cost_model, plan=plan)
    check_artifact_key(artifact, engine)
    restorer = VectorizedRestorer(artifact, policy=policy)
    return engine, restorer


def check_artifact_key(artifact, engine: LLMEngine) -> None:
    """Refuse an artifact of another <GPU type, model type> (§3)."""
    if artifact.model_name != engine.config.name:
        raise RestorationError(
            f"artifact is for {artifact.model_name}, engine wants "
            f"{engine.config.name}")
    if artifact.gpu_name != engine.cost_model.gpu.name:
        raise RestorationError(
            f"artifact was materialized on {artifact.gpu_name!r}, this "
            f"engine runs on {engine.cost_model.gpu.name!r} — the offline "
            f"phase is per <GPU type, model type> (§3)")


def medusa_cold_start(config, artifact, seed: int = 1,
                      mode: ExecutionMode = ExecutionMode.TIMING,
                      cost_model: Optional[CostModel] = None,
                      policy: Optional[DegradationPolicy] = None
                      ) -> Tuple[LLMEngine, ColdStartReport]:
    """One Medusa cold start: fresh process, restore-based loading phase.

    ``policy`` opts the restorer into the graceful-degradation ladder (see
    :mod:`repro.faults.ladder`); a fault plan in scope
    (``repro.faults.injecting``) fires in the driver and the restorer.
    ``artifact`` may be packed or object-form (see
    :func:`prepare_medusa_cold_start` for the plan each one gets).
    """
    # The restore builds ~40k long-lived objects (replayed buffers, graph
    # nodes) and turns only a few hundred into cyclic garbage while the
    # engine lives, so collections during it would walk a growing heap and
    # free next to nothing.
    with cyclic_gc_paused():
        engine, restorer = prepare_medusa_cold_start(
            config, artifact, seed=seed, mode=mode, cost_model=cost_model,
            policy=policy)
        report = engine.cold_start(restorer=restorer)
    return engine, report


def cold_start_for(config, strategy: Strategy, artifact=None, seed: int = 0,
                   **engine_kwargs) -> Tuple[LLMEngine, ColdStartReport]:
    """One cold start under any strategy; returns ``(engine, report)``.

    The single entry point the CLI (and tooling) routes every strategy
    through: ``MEDUSA`` requires an ``artifact`` and goes through
    :func:`medusa_cold_start`; every other strategy runs
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
