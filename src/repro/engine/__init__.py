"""The vLLM-like inference engine.

Implements the five loading-phase stages the paper breaks down (§2.1):
model structure initialization, model weights loading, tokenizer loading,
KV cache initialization (profiling forwarding + block allocation), and CUDA
graph capturing (warm-up + capture for 35 batch sizes) — plus the serving
paths with and without CUDA graphs, and the stage-overlap timeline model
that distinguishes vLLM, vLLM+ASYNC, and Medusa (Figures 1, 2, 7, 8).
"""

from repro.engine.engine import ColdStartReport, LLMEngine
from repro.engine.kvcache import BlockManager, KVCacheConfig, KVCacheRegion
from repro.engine.lanes import Contention, Lane
from repro.engine.loadplan import LoadPlan, PlanStage
from repro.engine.pipeline import ScheduledStage, Timeline
from repro.engine.request import SamplingParams, Sequence, SequenceStatus
from repro.engine.scheduler import ContinuousBatchingScheduler
from repro.engine.serving import ServingLoop
from repro.engine.strategies import (
    Strategy,
    plan_for,
    register_plan,
    registered_plans,
)

__all__ = [
    "BlockManager",
    "ColdStartReport",
    "Contention",
    "ContinuousBatchingScheduler",
    "KVCacheConfig",
    "KVCacheRegion",
    "LLMEngine",
    "Lane",
    "LoadPlan",
    "PlanStage",
    "SamplingParams",
    "ScheduledStage",
    "Sequence",
    "SequenceStatus",
    "ServingLoop",
    "Strategy",
    "Timeline",
    "plan_for",
    "register_plan",
    "registered_plans",
]
