"""Loading-phase stage names and timeline types, re-exported.

The canonical stage names and the :class:`Timeline`/:class:`ScheduledStage`
types live in :mod:`repro.engine.loadplan`; this module keeps them under
the ``repro.engine.pipeline`` import path.  Stage durations are placed on
a strategy's timeline with ``plan_for(strategy).schedule(durations,
penalties, strategy=strategy)`` (:mod:`repro.engine.strategies`).
"""

from __future__ import annotations

from repro.engine.loadplan import (   # noqa: F401  (re-exported names)
    CAPTURE,
    FETCH_ARTIFACT,
    KV_INIT,
    MEDUSA_RESTORE,
    MEDUSA_WARMUP,
    REPLAY_ALLOC,
    STRUCTURE,
    TOKENIZER,
    WEIGHTS,
    LoadPlan,
    PlanStage,
    ScheduledStage,
    restore_graph_stage,
    Timeline,
)
