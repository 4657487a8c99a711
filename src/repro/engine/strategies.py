"""The compared cold-start strategies (paper §7) and their LoadPlans.

- ``VLLM``: vanilla vLLM — every loading stage runs synchronously.
- ``VLLM_ASYNC``: vLLM plus naive asynchronous weight loading — the weights
  stage overlaps the tokenizer and KV-init stages (with the measured mutual
  interference), but the capture stage still waits for both.
- ``MEDUSA``: full materialization — KV init and CUDA graphs are restored
  from the offline artifact; only the first layer is warmed up/captured, in
  parallel with the weight loading.
- ``NO_CUDA_GRAPH``: vLLM with the capture stage removed — a cheaper cold
  start that forfeits graph-accelerated decoding (Figure 10's extra baseline).
- ``DEFERRED``: the §2.4 alternative the paper argues is ineffective —
  capture is removed from the cold start and performed lazily, per batch
  size, on the first request batch that needs it.  The capture latency is
  not eliminated, merely delayed and dispersed across serving requests.

Each strategy's *schedule* is a declarative
:class:`repro.engine.loadplan.LoadPlan` registered here: a DAG of stages
with resource lanes and contention declarations, placed by the generic
lane scheduler.  New orderings (e.g. the demonstration
``vllm-eager-tokenizer`` plan below, or future ServerlessLLM/Tangram-style
loading) are pure plan definitions — no engine or scheduler edits.
"""

from __future__ import annotations

import enum
import warnings
from typing import Dict, Optional, Sequence, Union

from repro.engine.lanes import CPU, DISK, GPU_COMPUTE, PCIE, Contention
from repro.engine.loadplan import (
    ALLOC_MAP,
    ARTIFACT,
    CAPTURE,
    DRIVER_SYMBOLS,
    FETCH_ARTIFACT,
    GRAPHS,
    KV_INIT,
    KV_STATE,
    MEDUSA_RESTORE,
    MEDUSA_WARMUP,
    PARAMS,
    REPLAY_ALLOC,
    RESTORE_KV,
    RESTORE_TAIL,
    RESTORE_WARMUP,
    STRUCTURE,
    STRUCTURE_STATE,
    TOKENIZER,
    TOKENIZER_STATE,
    WEIGHTS,
    WEIGHTS_STATE,
    LoadPlan,
    PlanStage,
    chunk_resource,
    fetch_chunk_stage,
    graph_resource,
    restore_graph_stage,
)
from repro.errors import EngineError


class Strategy(enum.Enum):
    """The compared cold-start strategies (see module docstring)."""

    VLLM = "vLLM"
    VLLM_ASYNC = "vLLM+ASYNC"
    MEDUSA = "Medusa"
    NO_CUDA_GRAPH = "w/o CUDA GRAPH"
    DEFERRED = "Deferred capture"

    @property
    def uses_cuda_graphs(self) -> bool:
        return self is not Strategy.NO_CUDA_GRAPH

    @property
    def label(self) -> str:
        return self.value


# ---------------------------------------------------------------------------
# Plan registry
# ---------------------------------------------------------------------------

_PLANS: Dict[str, LoadPlan] = {}
_STRATEGY_PLANS: Dict[Strategy, str] = {}


def register_plan(plan: LoadPlan,
                  strategy: Optional[Strategy] = None) -> LoadPlan:
    """Register ``plan`` by name (and optionally as a strategy's default).

    Registration statically verifies the plan
    (:func:`repro.analysis.planlint.lint_plan`): PLN0xx errors — effect
    races between concurrent stages, unresolvable action/contention
    bindings — reject the plan outright; advisories (dead stages,
    redundant deps, lane bubbles) surface as warnings.
    """
    if plan.name in _PLANS:
        raise EngineError(f"a plan named {plan.name!r} is already registered")
    # Imported lazily: the engine sits below repro.analysis, which reads
    # this package's plan types and reaches into repro.core.binfmt.  This
    # module loads during repro.core's init, so the verifier is imported
    # at the first registration, when binfmt is already complete.
    from repro.analysis.planlint import lint_plan
    report = lint_plan(plan)
    if report.errors:
        raise EngineError(
            f"plan {plan.name!r} failed static verification:\n"
            + "\n".join(d.render() for d in report.errors))
    for advisory in report.warnings:
        warnings.warn(f"plan {plan.name!r}: {advisory.render()}",
                      stacklevel=2)
    _PLANS[plan.name] = plan
    if strategy is not None:
        _STRATEGY_PLANS[strategy] = plan.name
    return plan


def plan_for(key: Union[Strategy, str]) -> LoadPlan:
    """The registered LoadPlan for a strategy or a plan name."""
    if isinstance(key, Strategy):
        name = _STRATEGY_PLANS.get(key)
        if name is None:
            raise EngineError(f"strategy {key} has no registered LoadPlan")
        return _PLANS[name]
    plan = _PLANS.get(key)
    if plan is None:
        available = ", ".join(sorted(_PLANS)) or "<none>"
        raise EngineError(f"no LoadPlan named {key!r}; available: {available}")
    return plan


def registered_plans() -> Dict[str, LoadPlan]:
    """A copy of the plan registry (name -> LoadPlan)."""
    return dict(_PLANS)


# ---------------------------------------------------------------------------
# The strategies' plans.  Declaration order is both the side-effect
# execution order and a topological order of the DAG.
# ---------------------------------------------------------------------------

def _sequential_plan(name: str, with_capture: bool,
                     description: str) -> LoadPlan:
    """Fully serialized loading: each stage depends on the previous one."""
    order = [
        PlanStage(STRUCTURE, CPU, required=True,
                  writes=(STRUCTURE_STATE,)),
        PlanStage(WEIGHTS, PCIE, deps=(STRUCTURE,), required=True,
                  reads=(STRUCTURE_STATE,), writes=(WEIGHTS_STATE,)),
        PlanStage(TOKENIZER, CPU, deps=(WEIGHTS,), required=True,
                  writes=(TOKENIZER_STATE,)),
        PlanStage(KV_INIT, GPU_COMPUTE, deps=(TOKENIZER,),
                  reads=(STRUCTURE_STATE,), writes=(KV_STATE,)),
    ]
    if with_capture:
        order.append(PlanStage(
            CAPTURE, GPU_COMPUTE, deps=(KV_INIT,),
            reads=(STRUCTURE_STATE, WEIGHTS_STATE, KV_STATE),
            writes=(GRAPHS,)))
    return LoadPlan(name, tuple(order), description=description)


register_plan(_sequential_plan(
    "vllm", with_capture=True,
    description="Vanilla vLLM: five synchronous stages (§2.1)."),
    strategy=Strategy.VLLM)

register_plan(_sequential_plan(
    "no-cuda-graph", with_capture=False,
    description="Synchronous loading without the capture stage (Fig. 10)."),
    strategy=Strategy.NO_CUDA_GRAPH)

register_plan(_sequential_plan(
    "deferred", with_capture=False,
    description="§2.4: capture is deferred onto the serving path."),
    strategy=Strategy.DEFERRED)

# Weights stream over PCIe while the CPU loads the tokenizer and the GPU
# runs the profiling forwarding; the profiling interferes with the copies
# (the declared contention), and capture must wait for both branches.
register_plan(LoadPlan(
    "vllm-async",
    (
        PlanStage(STRUCTURE, CPU, required=True,
                  writes=(STRUCTURE_STATE,)),
        PlanStage(WEIGHTS, PCIE, deps=(STRUCTURE,), required=True,
                  contention=Contention((KV_INIT,),
                                        "weight_kv_interference"),
                  reads=(STRUCTURE_STATE,), writes=(WEIGHTS_STATE,)),
        PlanStage(TOKENIZER, CPU, deps=(STRUCTURE,), required=True,
                  writes=(TOKENIZER_STATE,)),
        # The profiling forwarding only needs parameter *shapes*, so it
        # legitimately overlaps the weight stream: reads structure, not
        # weights (declaring a weights read here would be a PLN002 race).
        PlanStage(KV_INIT, GPU_COMPUTE, deps=(TOKENIZER,),
                  reads=(STRUCTURE_STATE,), writes=(KV_STATE,)),
        PlanStage(CAPTURE, GPU_COMPUTE, deps=(WEIGHTS, KV_INIT),
                  reads=(STRUCTURE_STATE, WEIGHTS_STATE, KV_STATE),
                  writes=(GRAPHS,)),
    ),
    description="vLLM + naive asynchronous weight loading (§7.3)."),
    strategy=Strategy.VLLM_ASYNC)

# Medusa reorders KV initialization before weight loading (restored, so it
# no longer profiles or interferes), warms up the first layer during the
# weight load, and only the restore tail — which reads weights-backed
# state — is serial after every branch (§7.3).
register_plan(LoadPlan(
    "medusa",
    (
        PlanStage(STRUCTURE, CPU, required=True,
                  writes=(STRUCTURE_STATE,)),
        PlanStage(WEIGHTS, PCIE, deps=(STRUCTURE,), required=True,
                  reads=(STRUCTURE_STATE,), writes=(WEIGHTS_STATE,)),
        PlanStage(TOKENIZER, CPU, deps=(STRUCTURE,), required=True,
                  writes=(TOKENIZER_STATE,)),
        PlanStage(KV_INIT, GPU_COMPUTE, deps=(STRUCTURE,),
                  action=RESTORE_KV,
                  reads=(ARTIFACT, STRUCTURE_STATE),
                  writes=(KV_STATE, ALLOC_MAP)),
        PlanStage(MEDUSA_WARMUP, GPU_COMPUTE, deps=(KV_INIT,),
                  action=RESTORE_WARMUP,
                  reads=(ARTIFACT, KV_STATE, ALLOC_MAP),
                  writes=(ALLOC_MAP, PARAMS, DRIVER_SYMBOLS)),
        PlanStage(MEDUSA_RESTORE, GPU_COMPUTE,
                  deps=(MEDUSA_WARMUP, WEIGHTS, TOKENIZER),
                  action=RESTORE_TAIL,
                  reads=(ARTIFACT, WEIGHTS_STATE, TOKENIZER_STATE,
                         ALLOC_MAP, PARAMS),
                  writes=(DRIVER_SYMBOLS, GRAPHS)),
    ),
    description="Materialized restore: KV + graphs from the artifact (§3)."),
    strategy=Strategy.MEDUSA)

def pipelined_medusa_plan(batch_sizes: Sequence[int],
                          name: str = "medusa-pipelined") -> LoadPlan:
    """The pipelined Medusa plan for one artifact's captured batch sizes.

    Splits the monolithic ``medusa_restore`` tail into ``fetch_artifact``
    (DISK lane — opening/indexing the binary artifact overlaps structure
    init), ``replay_alloc`` (CPU — the recorded (de)allocation replay), and
    one ``restore_graph[bs]`` stage per captured batch size.  Only the
    first-request batch size — the *largest*, so every request can pad to
    it — restores in the foreground; the remaining graphs are
    ``background=True`` stages that finish behind the serving-ready
    instant, which is what shortens the critical path
    (``Timeline.ready`` < ``Timeline.total``, §7.3).

    Built per artifact (the stage set depends on its batch sizes), so the
    result is passed to ``LLMEngine(plan=...)`` rather than registered;
    :data:`Strategy.MEDUSA`'s registered default stays the monolithic
    ``medusa`` plan.
    """
    batches = sorted(set(batch_sizes), reverse=True)
    if not batches:
        raise EngineError("pipelined Medusa plan needs at least one "
                          "captured batch size")
    stages = [
        PlanStage(STRUCTURE, CPU, required=True,
                  writes=(STRUCTURE_STATE,)),
        PlanStage(FETCH_ARTIFACT, DISK, writes=(ARTIFACT,)),
        PlanStage(WEIGHTS, PCIE, deps=(STRUCTURE,), required=True,
                  reads=(STRUCTURE_STATE,), writes=(WEIGHTS_STATE,)),
        PlanStage(TOKENIZER, CPU, deps=(STRUCTURE,), required=True,
                  writes=(TOKENIZER_STATE,)),
        PlanStage(KV_INIT, GPU_COMPUTE, deps=(STRUCTURE, FETCH_ARTIFACT),
                  action=RESTORE_KV,
                  reads=(ARTIFACT, STRUCTURE_STATE),
                  writes=(KV_STATE, ALLOC_MAP)),
        # KV restore already waited on the artifact, so a FETCH_ARTIFACT
        # dep here would be redundant (PLN008).
        PlanStage(REPLAY_ALLOC, CPU, deps=(KV_INIT,),
                  reads=(ARTIFACT, ALLOC_MAP), writes=(ALLOC_MAP,)),
        PlanStage(MEDUSA_WARMUP, GPU_COMPUTE, deps=(REPLAY_ALLOC,),
                  action=RESTORE_WARMUP,
                  reads=(ARTIFACT, KV_STATE, ALLOC_MAP),
                  writes=(PARAMS, DRIVER_SYMBOLS)),
        PlanStage(restore_graph_stage(batches[0]), GPU_COMPUTE,
                  deps=(MEDUSA_WARMUP, WEIGHTS, TOKENIZER),
                  reads=(ARTIFACT, WEIGHTS_STATE, TOKENIZER_STATE,
                         ALLOC_MAP, PARAMS),
                  writes=(DRIVER_SYMBOLS, graph_resource(batches[0]))),
    ]
    prev = restore_graph_stage(batches[0])
    for batch in batches[1:]:
        stage = restore_graph_stage(batch)
        stages.append(PlanStage(
            stage, GPU_COMPUTE, deps=(prev,), background=True,
            reads=(ARTIFACT, ALLOC_MAP, PARAMS, DRIVER_SYMBOLS),
            writes=(graph_resource(batch),)))
        prev = stage
    return LoadPlan(
        name, tuple(stages),
        description="Pipelined materialized restore: lazy artifact fetch, "
                    "replayed allocations, first graph foreground, the "
                    "rest behind the ready instant.")


def chunked_medusa_plan(manifest, name: str = "medusa-chunked") -> LoadPlan:
    """The chunk-streamed Medusa plan for one artifact's manifest.

    Replaces :data:`FETCH_ARTIFACT` with one ``fetch_chunk[i]`` stage per
    manifest chunk, pipelined on the DISK lane.  Foreground instances
    cover exactly what ``restore_graph[0]`` needs — the kernel table,
    replay shards, permanent dumps, every graph head, and the largest
    batch's tail (``manifest.foreground_chunks()``); the tails of the
    remaining batches stream as ``background=True`` fetches paired with
    their background ``restore_graph`` stages.  The restore stages gate on
    the *latest chunk they read* rather than the end of the stream, so
    allocation replay overlaps the still-arriving tail bytes — the
    foreground fetch cost drops from O(artifact) to O(foreground chunks).

    Like :func:`pipelined_medusa_plan` this is built per artifact and
    passed to ``LLMEngine(plan=...)``, not registered.
    """
    # Imported lazily for the same load-order reason as planlint above.
    from repro.core.chunks import (
        KIND_DUMPS,
        KIND_GRAPH_HEAD,
        KIND_GRAPH_TAIL,
        KIND_KERNELS,
        KIND_REPLAY,
    )
    batches = sorted(set(manifest.batches), reverse=True)
    if not batches:
        raise EngineError("chunked Medusa plan needs at least one "
                          "captured batch size")
    index_of = {ref.name: i for i, ref in enumerate(manifest.chunks)}
    resource = {ref.name: chunk_resource(index_of[ref.name])
                for ref in manifest.chunks}
    foreground = manifest.foreground_chunks()
    replay_reads = tuple(resource[ref.name] for ref in foreground
                         if ref.kind == KIND_REPLAY)
    kernel_reads = tuple(resource[ref.name] for ref in foreground
                         if ref.kind == KIND_KERNELS)
    dump_reads = tuple(resource[ref.name] for ref in foreground
                       if ref.kind == KIND_DUMPS)
    head_of = {ref.batch: ref for ref in manifest.chunks
               if ref.kind == KIND_GRAPH_HEAD}
    tail_of = {ref.batch: ref for ref in manifest.chunks
               if ref.kind == KIND_GRAPH_TAIL}

    stages = [
        PlanStage(STRUCTURE, CPU, required=True,
                  writes=(STRUCTURE_STATE,)),
    ]
    # The foreground chunk stream: a dep chain on the DISK lane, so the
    # stages both serialize (one disk) and expose per-chunk completion
    # instants for the restore stages to gate on.
    prev_fetch = None
    fetch_name = {}
    for ref in foreground:
        stage_name = fetch_chunk_stage(index_of[ref.name])
        fetch_name[ref.name] = stage_name
        stages.append(PlanStage(
            stage_name, DISK,
            deps=(prev_fetch,) if prev_fetch else (),
            writes=(resource[ref.name],)))
        prev_fetch = stage_name
    replay_ready = fetch_name[[ref for ref in foreground
                               if ref.kind == KIND_REPLAY][-1].name]
    heads_ready = fetch_name[head_of[batches[-1]].name]
    largest_tail_ready = fetch_name[tail_of[batches[0]].name]

    stages += [
        PlanStage(WEIGHTS, PCIE, deps=(STRUCTURE,), required=True,
                  reads=(STRUCTURE_STATE,), writes=(WEIGHTS_STATE,)),
        PlanStage(TOKENIZER, CPU, deps=(STRUCTURE,), required=True,
                  writes=(TOKENIZER_STATE,)),
        # Gates on the last replay shard, not the stream's end: the KV
        # replay runs while heads and tails are still arriving.
        PlanStage(KV_INIT, GPU_COMPUTE, deps=(STRUCTURE, replay_ready),
                  action=RESTORE_KV,
                  reads=(STRUCTURE_STATE,) + replay_reads,
                  writes=(KV_STATE, ALLOC_MAP)),
        PlanStage(REPLAY_ALLOC, CPU, deps=(KV_INIT,),
                  reads=replay_reads + (ALLOC_MAP,), writes=(ALLOC_MAP,)),
        PlanStage(MEDUSA_WARMUP, GPU_COMPUTE,
                  deps=(REPLAY_ALLOC, heads_ready),
                  action=RESTORE_WARMUP,
                  reads=kernel_reads + dump_reads
                  + tuple(resource[head_of[b].name] for b in batches)
                  + (KV_STATE, ALLOC_MAP),
                  writes=(PARAMS, DRIVER_SYMBOLS)),
        PlanStage(restore_graph_stage(batches[0]), GPU_COMPUTE,
                  deps=(MEDUSA_WARMUP, WEIGHTS, TOKENIZER,
                        largest_tail_ready),
                  reads=(WEIGHTS_STATE, TOKENIZER_STATE, ALLOC_MAP, PARAMS,
                         resource[head_of[batches[0]].name],
                         resource[tail_of[batches[0]].name]),
                  writes=(DRIVER_SYMBOLS, graph_resource(batches[0]))),
    ]
    prev_restore = restore_graph_stage(batches[0])
    for batch in batches[1:]:
        tail = tail_of[batch]
        tail_fetch = fetch_chunk_stage(index_of[tail.name])
        stages.append(PlanStage(
            tail_fetch, DISK, deps=(prev_fetch,), background=True,
            writes=(resource[tail.name],)))
        prev_fetch = tail_fetch
        stage = restore_graph_stage(batch)
        stages.append(PlanStage(
            stage, GPU_COMPUTE, deps=(prev_restore, tail_fetch),
            background=True,
            reads=(resource[head_of[batch].name], resource[tail.name],
                   ALLOC_MAP, PARAMS, DRIVER_SYMBOLS),
            writes=(graph_resource(batch),)))
        prev_restore = stage
    return LoadPlan(
        name, tuple(stages),
        description="Chunk-streamed materialized restore: content-"
                    "addressed chunks fetched as a DISK-lane pipeline, "
                    "foreground covering only what the first graph needs.")


# Demonstration plan (not tied to a Strategy): the tokenizer is a pure
# disk/CPU-parse stage with no dependency on the model structure, so it
# can overlap structure initialization — a one-plan addition showing new
# orderings need no engine, scheduler, or reporting edits.
register_plan(LoadPlan(
    "vllm-eager-tokenizer",
    (
        PlanStage(STRUCTURE, CPU, required=True,
                  writes=(STRUCTURE_STATE,)),
        PlanStage(TOKENIZER, DISK, required=True,
                  writes=(TOKENIZER_STATE,)),
        PlanStage(WEIGHTS, PCIE, deps=(STRUCTURE,), required=True,
                  reads=(STRUCTURE_STATE,), writes=(WEIGHTS_STATE,)),
        PlanStage(KV_INIT, GPU_COMPUTE, deps=(WEIGHTS, TOKENIZER),
                  reads=(STRUCTURE_STATE,), writes=(KV_STATE,)),
        PlanStage(CAPTURE, GPU_COMPUTE, deps=(KV_INIT,),
                  reads=(STRUCTURE_STATE, WEIGHTS_STATE, KV_STATE),
                  writes=(GRAPHS,)),
    ),
    description="vLLM with the tokenizer overlapping structure init."))

# The canonical pipelined plan, registered so ``repro lint-plan --all``,
# the CLI, and CI verify it alongside the strategies.  Real cold starts
# build a per-artifact instance via :func:`pipelined_medusa_plan` (the
# stage set depends on the artifact's captured batch sizes); this
# registered default uses a representative small capture ladder.
register_plan(pipelined_medusa_plan((1, 2, 4, 8)))
