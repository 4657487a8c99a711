"""Composing Medusa with Optimus-style structure transformation (§9).

Optimus (EuroSys '24, cited as [19]) accelerates the *model structure
initialization* stage by transforming an existing model of similar
structure inside the warm container instead of instantiating from scratch.
The paper positions Medusa as orthogonal: Medusa covers KV init and
capturing, Optimus covers structure init, and the two compose.

This module implements that composition.  A warm container holds a donor
model's instantiated structure; initializing the target becomes a
*transform*: reuse the donor's per-layer buffer skeleton, adjusting only
tensor metadata — far cheaper than building the structure from scratch.
The transform must still produce the same deterministic allocation order
(Medusa's §2.5 assumption), which the restorer's prefix verification then
checks as usual.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.online import prepare_medusa_cold_start
from repro.engine.engine import ColdStartReport, LLMEngine
from repro.simgpu.process import ExecutionMode

#: Cost of transforming one donor tensor into a target tensor (metadata
#: rewrite + in-place retag) vs. instantiating it from scratch.
TRANSFORM_PER_BUFFER = 35e-6
#: Fixed transform bookkeeping (match layers, plan the rewrite).
TRANSFORM_BASE = 0.05


class OptimusTransformer:
    """Structure-init accelerator: donor-based transform instead of build."""

    def transform_time(self, engine: LLMEngine) -> float:
        """Simulated duration of transforming the donor into the target."""
        buffers = engine.config.weight_buffer_count()
        return TRANSFORM_BASE + TRANSFORM_PER_BUFFER * buffers

    def install(self, engine: LLMEngine) -> None:
        """Replace the engine's structure-init stage with the transform.

        The transform performs the *same allocations in the same order* —
        it reuses the donor's skeleton but the target's tensor set — so
        Medusa's deterministic-control-flow assumption (and the restorer's
        prefix verification) still hold.
        """
        def transformed_stage() -> None:
            engine.process.clock.advance(self.transform_time(engine))
            engine.model.initialize_structure()   # identical allocations

        engine._stage_structure_init = transformed_stage


def medusa_plus_optimus_cold_start(
        config, artifact, seed: int = 1,
        mode: ExecutionMode = ExecutionMode.TIMING,
        cost_model=None,
) -> Tuple[LLMEngine, ColdStartReport]:
    """A cold start with both materializations: structure transform
    (Optimus) + KV/graph restore (Medusa) — the §9 composition claim."""
    engine, restorer = prepare_medusa_cold_start(
        config, artifact, seed=seed, mode=mode, cost_model=cost_model)
    OptimusTransformer().install(engine)
    report = engine.cold_start(restorer=restorer)
    return engine, report
