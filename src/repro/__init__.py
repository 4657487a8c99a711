"""Reproduction of "Medusa: Accelerating Serverless LLM Inference with
Materialization" (ASPLOS '25) on a simulated CUDA substrate.

Public API tour:

- :mod:`repro.simgpu` -- the simulated CUDA driver/GPU (allocator with
  non-deterministic addresses, ASLR'd libraries with hidden kernels, stream
  capture, graph replay, analytic cost model);
- :mod:`repro.models` -- the paper's ten models (Table 1) plus tiny test
  configurations;
- :mod:`repro.engine` -- the vLLM-like engine: five-stage loading phase,
  KV cache region, capture runner, prefill and decode with/without CUDA
  graphs;
- :mod:`repro.core` -- **Medusa itself**: offline materialization (indirect
  index pointers, copy-free contents classification, kernel name tables)
  and online restoration (allocation replay, first-layer triggering,
  module enumeration), plus output validation;
- :mod:`repro.faults` -- deterministic fault injection for every layer the
  restore crosses, plus the graceful-degradation ladder (partial ->
  recapture -> eager) that keeps a faulted cold start serving;
- :mod:`repro.serverless` -- the discrete-event cluster simulator producing
  the paper's TTFT tail / throughput figures; its instances are the one
  model of continuous-batching serving after a cold start.

Quickstart::

    from repro import LLMEngine, Strategy, run_offline, medusa_cold_start

    vllm = LLMEngine("Qwen1.5-4B", Strategy.VLLM).cold_start()
    artifact, offline_report = run_offline("Qwen1.5-4B")
    engine, medusa = medusa_cold_start("Qwen1.5-4B", artifact)
    print(vllm.loading_time, "->", medusa.loading_time)
"""

from repro.core import (
    ArtifactStore,
    LazyArtifact,
    OfflinePhase,
    OfflineReport,
    VectorizedRestorer,
    cold_start_for,
    medusa_cold_start,
    prepare_medusa_cold_start,
    run_offline,
    save_binary,
)
from repro.core.validation import validate_restoration
from repro.engine import ColdStartReport, LLMEngine, Strategy
from repro.faults import (
    DegradationPolicy,
    DegradationReport,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    Rung,
)
from repro.models import (
    PAPER_MODELS,
    TINY_MODELS,
    Model,
    ModelConfig,
    get_model_config,
    paper_model_names,
)
from repro.serverless import (
    ClusterSimulator,
    ModelDeployment,
    ServingCostModel,
    ShareGPTWorkload,
)
from repro.simgpu import CostModel, CudaProcess, ExecutionMode, GpuProperties

__version__ = "1.0.0"

__all__ = [
    "ArtifactStore",
    "ClusterSimulator",
    "ColdStartReport",
    "CostModel",
    "CudaProcess",
    "DegradationPolicy",
    "DegradationReport",
    "ExecutionMode",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "GpuProperties",
    "LLMEngine",
    "LazyArtifact",
    "Rung",
    "Model",
    "ModelConfig",
    "ModelDeployment",
    "OfflinePhase",
    "OfflineReport",
    "PAPER_MODELS",
    "ServingCostModel",
    "ShareGPTWorkload",
    "Strategy",
    "TINY_MODELS",
    "VectorizedRestorer",
    "get_model_config",
    "cold_start_for",
    "medusa_cold_start",
    "paper_model_names",
    "prepare_medusa_cold_start",
    "run_offline",
    "save_binary",
    "validate_restoration",
]
