"""The vLLM-like inference engine.

Implements the five loading-phase stages the paper breaks down (§2.1):
model structure initialization, model weights loading, tokenizer loading,
KV cache initialization (profiling forwarding + region allocation), and CUDA
graph capturing (warm-up + capture for 35 batch sizes) — plus prefill and
decode with and without CUDA graphs, and the stage-overlap timeline model
that distinguishes vLLM, vLLM+ASYNC, and Medusa (Figures 1, 2, 7, 8).
Serving a request stream after a cold start is modelled in one place, the
pool's :class:`repro.serverless.instance.Instance`.
"""

from repro.engine.engine import ColdStartReport, LLMEngine
from repro.engine.kvcache import KVCacheConfig, KVCacheRegion
from repro.engine.lanes import Contention, Lane
from repro.engine.loadplan import (
    LoadPlan,
    PlanStage,
    ScheduledStage,
    Timeline,
)
from repro.engine.strategies import (
    Strategy,
    plan_for,
    register_plan,
    registered_plans,
)

__all__ = [
    "ColdStartReport",
    "Contention",
    "KVCacheConfig",
    "KVCacheRegion",
    "LLMEngine",
    "Lane",
    "LoadPlan",
    "PlanStage",
    "ScheduledStage",
    "Strategy",
    "Timeline",
    "plan_for",
    "register_plan",
    "registered_plans",
]
