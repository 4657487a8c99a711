"""The offline phase: capturing stage + analysis stage (paper §3, Fig. 5).

Runs once per <GPU type, model type>:

- **Capturing stage** — a full vanilla cold start with the allocator and
  ``cudaLaunchKernel`` intercepted (§4.1), producing the CUDA graphs, the
  global event trace, and the profiled KV memory; each graph's nodes are
  then inspected and dumped (kernel names via ``cuFuncGetName``).
- **Analysis stage** — indirect index pointer analysis with trace-based
  backward matching, buffer contents classification, kernel name table and
  trigger-plan construction; everything lands in one
  :class:`repro.core.artifact.MaterializedModel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.artifact import (
    MaterializedGraph,
    MaterializedModel,
    MaterializedNode,
    ReplayEvent,
    TriggerPlan,
)
from repro.core.classify import classify_buffers
from repro.core.interception import attach, detach
from repro.core.pointer_analysis import (
    POINTER,
    AllocationIndex,
    AnalysisStats,
    analyze_graph_params,
)
from repro.core.trace import (
    AllocTraceEvent,
    EmptyCacheTraceEvent,
    FreeTraceEvent,
    LaunchTraceEvent,
    Trace,
)
from repro.engine.engine import LLMEngine
from repro.engine.kvcache import KVCacheConfig
from repro.engine.strategies import Strategy
from repro.errors import MaterializationError
from repro.models.zoo import get_model_config
from repro.simgpu.costmodel import CostModel
from repro.simgpu.process import ExecutionMode
from repro.utils.collector import cyclic_gc_paused


@dataclass
class OfflineReport:
    """Figure 9's quantities: per-stage offline overhead."""

    model: str
    capture_stage_time: float
    analysis_time: float
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def total_time(self) -> float:
        return self.capture_stage_time + self.analysis_time


class OfflinePhase:
    """Materializes one model on one (simulated) GPU type."""

    def __init__(self, config, seed: int = 5000,
                 mode: ExecutionMode = ExecutionMode.TIMING,
                 cost_model: Optional[CostModel] = None,
                 kv_config: Optional[KVCacheConfig] = None,
                 naive_pointer_matching: bool = False,
                 batch_subset: Optional[Tuple[int, ...]] = None,
                 lint: bool = True):
        """``batch_subset``: materialize only these batch sizes (must be a
        subset of the config's capture list).  Fewer sizes cut the offline
        time and artifact size at the cost of coarser padding when serving
        (uncovered batch sizes replay the next larger graph).

        ``lint``: statically verify the finished artifact (zero GPU-time;
        see :mod:`repro.analysis`) and refuse to emit one that carries
        error-severity diagnostics.  Off only for ablations that *want*
        broken artifacts (e.g. naive pointer matching)."""
        if isinstance(config, str):
            config = get_model_config(config)
        if batch_subset is not None:
            missing = set(batch_subset) - set(config.capture_batch_sizes)
            if missing:
                raise MaterializationError(
                    f"batch subset {sorted(missing)} outside the capture "
                    f"list of {config.name}")
        self.batch_subset = tuple(sorted(batch_subset)) \
            if batch_subset is not None else None
        self.config = config
        self.seed = seed
        self.mode = mode
        self.cost_model = cost_model or CostModel()
        self.kv_config = kv_config or KVCacheConfig()
        self.naive_pointer_matching = naive_pointer_matching
        self.lint = lint
        self.engine: Optional[LLMEngine] = None

    # ------------------------------------------------------------------

    def run(self) -> Tuple[MaterializedModel, OfflineReport]:
        # The phase builds ~300k long-lived objects for a 7B model (trace
        # events, allocator history, graph nodes, the artifact) and drops
        # no reference cycle before it returns.
        with cyclic_gc_paused():
            engine, trace, capture_stage_time = self._capturing_stage()
            artifact, analysis_time, stats = self._analysis_stage(engine,
                                                                  trace)
            if self.lint:
                stats["lint_diagnostics"] = float(
                    self._lint_artifact(engine, artifact))
        report = OfflineReport(
            model=self.config.name,
            capture_stage_time=capture_stage_time,
            analysis_time=analysis_time,
            stats=stats,
        )
        artifact.stats.update(stats)
        return artifact, report

    def _lint_artifact(self, engine: LLMEngine,
                       artifact: MaterializedModel) -> int:
        """Lint-on-materialize: never emit an artifact that cannot restore."""
        from repro.analysis import lint_artifact
        from repro.errors import LintError
        report = lint_artifact(artifact, catalog=engine.catalog)
        if report.errors:
            raise LintError(
                f"materialized artifact for {self.config.name} failed "
                f"static verification with {len(report.errors)} error(s): "
                f"{', '.join(report.codes())}", report=report)
        return len(report.diagnostics)

    # -- capturing stage ------------------------------------------------------

    def _capturing_stage(self) -> Tuple[LLMEngine, Trace, float]:
        engine = LLMEngine(self.config, Strategy.VLLM, seed=self.seed,
                           mode=self.mode, cost_model=self.cost_model,
                           kv_config=self.kv_config,
                           capture_batch_sizes=self.batch_subset)
        self._guard_supported_kernels(engine)
        self.engine = engine
        interceptor = attach(engine.process)
        engine.cold_start()
        trace = detach(engine.process, interceptor)
        total_nodes = sum(g.num_nodes
                          for g in engine.capture_artifacts.graphs.values())
        engine.process.clock.advance(
            self.cost_model.graph_dump_per_node * total_nodes)
        capture_stage_time = (self.cost_model.runtime_init_time
                              + engine.process.clock.now)
        return engine, trace, capture_stage_time

    @staticmethod
    def _guard_supported_kernels(engine: LLMEngine) -> None:
        """Refuse parameter shapes outside Medusa's current scope (§8).

        Device-side allocations and indirect pointers (pointers to arrays
        of pointers) are explicitly unsupported in the paper; it found none
        across 139,364 nodes, and neither do our catalogs — but a custom
        kernel could introduce them, so fail loudly before capturing rather
        than mis-restore later.
        """
        for library in engine.catalog.libraries():
            for spec in library.iter_kernels():
                for slot in spec.params:
                    if slot.role.startswith("indirect"):
                        raise MaterializationError(
                            f"kernel {spec.name} takes an indirect pointer "
                            f"parameter ({slot.role!r}); materializing "
                            f"pointers to pointer arrays is future work (§8)")

    # -- analysis stage ----------------------------------------------------------

    def _analysis_stage(self, engine: LLMEngine,
                        trace: Trace) -> Tuple[MaterializedModel, float, Dict]:
        config = self.config
        process = engine.process
        driver = process.driver
        catalog = engine.catalog
        capture_artifacts = engine.capture_artifacts
        index = AllocationIndex(trace)

        artifact = MaterializedModel(
            model_name=config.name,
            gpu_name=self.cost_model.gpu.name,
            kv_bytes=engine.kv_bytes,
            kv_num_blocks=engine.kv_region.num_blocks,
            kv_layer_stride=engine.kv_region.layer_stride,
            capture_marker=capture_artifacts.capture_marker,
        )

        # Allocation bookkeeping: structure prefix + replay suffix (§4.2).
        weight_count = config.weight_buffer_count()
        allocations = trace.allocations()
        if len(allocations) < weight_count:
            raise MaterializationError(
                f"trace has {len(allocations)} allocations, expected at "
                f"least {weight_count} structure-init weight buffers")
        prefix = allocations[:weight_count]
        if any(event.tag != "weight" for event in prefix):
            raise MaterializationError(
                "structure-init prefix contains non-weight allocations; "
                "the deterministic-control-flow assumption is violated")
        artifact.structure_prefix = [(e.size, e.tag) for e in prefix]
        boundary_seq = prefix[-1].seq
        artifact.replay_events = _replay_events(trace, boundary_seq)

        for event in allocations:
            if event.tag == "kv":
                artifact.kv_alloc_index = event.alloc_index
            elif event.tag == "graph_input":
                artifact.graph_input_alloc_index = event.alloc_index
            elif event.tag == "graph_output":
                artifact.graph_output_alloc_index = event.alloc_index
        if artifact.kv_alloc_index < 0:
            raise MaterializationError("trace contains no KV region allocation")

        # Per-graph pointer analysis, in the order capture ran.
        captured = trace.captured_launches()
        kernel_libraries = artifact.kernel_libraries
        cursor = 0
        referenced: Set[int] = set()
        totals = AnalysisStats()
        batch_order = sorted(capture_artifacts.graphs, reverse=True)
        for batch_size in batch_order:
            graph = capture_artifacts.graphs[batch_size]
            node_launches = captured[cursor:cursor + graph.num_nodes]
            cursor += graph.num_nodes
            if len(node_launches) != graph.num_nodes:
                raise MaterializationError(
                    f"captured-launch trace is short for batch {batch_size}")
            restores, stats = analyze_graph_params(
                index, node_launches, naive=self.naive_pointer_matching)
            totals.pointer_params += stats.pointer_params
            totals.const_params += stats.const_params
            totals.interior_pointers += stats.interior_pointers
            totals.demoted_false_positives += stats.demoted_false_positives
            nodes: List[MaterializedNode] = []
            for node, launch, node_restores in zip(graph.nodes, node_launches,
                                                   restores):
                kernel_name = driver.cu_func_get_name(node.kernel_address)
                if kernel_name != launch.kernel_name:
                    raise MaterializationError(
                        f"node/launch mismatch: {kernel_name} vs "
                        f"{launch.kernel_name}")
                if kernel_name not in kernel_libraries:
                    kernel_libraries[kernel_name] = \
                        catalog.kernel(kernel_name).library
                for restore in node_restores:
                    if restore.kind == POINTER:
                        referenced.add(restore.alloc_index)
                # The launch row carries the node's parameter sizes: both
                # were recorded from the same parameter list.
                nodes.append(MaterializedNode(
                    kernel_name, list(launch.param_sizes), node_restores,
                    dict(node.launch_dims)))
            artifact.graphs[batch_size] = MaterializedGraph(
                batch_size=batch_size,
                nodes=nodes,
                edges=sorted(graph.edges),
                param_bytes=graph.exec_meta.param_bytes,
                num_tokens=graph.exec_meta.num_tokens,
            )
        if cursor != len(captured):
            raise MaterializationError(
                f"{len(captured) - cursor} captured launches were not "
                f"attributed to any graph")

        # Copy-free contents classification (§4.3).
        plan = classify_buffers(trace, capture_artifacts.capture_marker,
                                referenced)
        permanent_bytes = 0
        for alloc_index in sorted(plan.permanent):
            buffer = process.allocator.buffer_by_alloc_index(alloc_index)
            payload = buffer.payload
            if payload is None:
                raise MaterializationError(
                    f"permanent buffer {alloc_index} has no contents to dump")
            artifact.permanent_contents[alloc_index] = payload.tolist()
            permanent_bytes += buffer.size

        # First-layer triggering plus handwritten fallbacks (§5).
        template = config.kernel_template()
        artifact.first_layer_nodes = 1 + len(template.layer_kernels)
        artifact.trigger_plans = _trigger_plans(artifact, catalog)

        analysis_time = (self.cost_model.analysis_per_node
                         * artifact.total_nodes
                         + self.cost_model.artifact_write_base)

        magic_kernels = sum(
            1 for graph in artifact.graphs.values() for node in graph.nodes
            if any(r.alloc_index in plan.permanent
                   for r in node.param_restores if r.kind == POINTER))
        stats = {
            "total_nodes": float(artifact.total_nodes),
            "pointer_params": float(totals.pointer_params),
            "const_params": float(totals.const_params),
            "interior_pointers": float(totals.interior_pointers),
            "demoted_false_positives": float(totals.demoted_false_positives),
            "pre_capture_buffers": float(len(plan.pre_capture)),
            "temporary_buffers": float(len(plan.temporary)),
            "permanent_buffers": float(len(plan.permanent)),
            "permanent_bytes": float(permanent_bytes),
            "permanent_kernel_fraction": (
                magic_kernels / artifact.total_nodes
                if artifact.total_nodes else 0.0),
            "replay_events": float(artifact.total_replay_events),
        }
        return artifact, analysis_time, stats


def _replay_events(trace: Trace, boundary_seq: int) -> List[ReplayEvent]:
    events: List[ReplayEvent] = []
    append = events.append
    for event in trace.events:
        kind = type(event)
        if kind is LaunchTraceEvent or event.seq <= boundary_seq:
            continue
        # ReplayEvent fields, positionally: kind, alloc_index, size, tag,
        # pooled, pool.
        if kind is AllocTraceEvent:
            append(ReplayEvent("alloc", event.alloc_index, event.size,
                               event.tag, False, event.pool))
        elif kind is FreeTraceEvent:
            append(ReplayEvent("free", event.alloc_index, 0, "",
                               event.pooled))
        elif kind is EmptyCacheTraceEvent:
            append(ReplayEvent("empty_cache"))
    return events


def _trigger_plans(artifact: MaterializedModel, catalog) -> List[TriggerPlan]:
    """Handwritten triggering kernels for modules first-layer misses (§5.1).

    A module is already covered if a first-layer kernel lives in it (the
    first-layer warm-up loads it) or if any of its needed kernels is visible
    (the dlsym path loads it).  Whatever remains needs an explicit trigger:
    we reuse one captured node's parameters to launch a representative
    kernel of the module eagerly.
    """
    needed: Dict[Tuple[str, str], Tuple[str, int, int]] = {}
    covered: Set[Tuple[str, str]] = set()
    for batch_size, graph in artifact.graphs.items():
        for node_index, node in enumerate(graph.nodes):
            spec = catalog.kernel(node.kernel_name)
            module_key = (spec.library, spec.module)
            if node_index < artifact.first_layer_nodes or not spec.hidden:
                covered.add(module_key)
            needed.setdefault(module_key,
                              (node.kernel_name, batch_size, node_index))
    plans: List[TriggerPlan] = []
    for module_key, (kernel_name, batch_size, node_index) in sorted(
            needed.items()):
        if module_key in covered:
            continue
        plans.append(TriggerPlan(kernel_name=kernel_name,
                                 node_ref=(batch_size, node_index)))
    return plans


def run_offline(config, **kwargs) -> Tuple[MaterializedModel, OfflineReport]:
    """Convenience wrapper: materialize ``config`` with default settings."""
    return OfflinePhase(config, **kwargs).run()
