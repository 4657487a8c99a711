"""The offline phase: capturing stage + analysis stage (paper §3, Fig. 5).

Runs once per <GPU type, model type>:

- **Capturing stage** — a full vanilla cold start with the allocator and
  ``cudaLaunchKernel`` intercepted (§4.1), producing the CUDA graphs, the
  global event trace, and the profiled KV memory; each graph's nodes are
  then inspected and dumped (kernel names via ``cuFuncGetName``).
- **Analysis stage** — indirect index pointer analysis with trace-based
  backward matching, buffer contents classification, kernel name table and
  trigger-plan construction, packed straight from the trace's columns
  and the analysis's rule columns into one
  :class:`repro.core.binfmt.LazyArtifact`, the form lint, the store,
  ``save_binary`` and the restorer all read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.artifact import ARTIFACT_FORMAT_VERSION
from repro.core.binfmt import (
    POINTER_CODE,
    GraphRows,
    LazyArtifact,
    ReplayTable,
    pack_artifact,
)
from repro.core.classify import classify_buffers
from repro.core.interception import attach, detach
from repro.core.pointer_analysis import (
    AllocationIndex,
    AnalysisStats,
    analyze_graph_params,
)
from repro.core.trace import Trace
from repro.engine.engine import LLMEngine
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
                 naive_pointer_matching: bool = False,
                 batch_subset: Optional[Tuple[int, ...]] = None):
        """``batch_subset``: materialize only these batch sizes (must be a
        subset of the config's capture list).  Fewer sizes cut the offline
        time and artifact size at the cost of coarser padding when serving
        (uncovered batch sizes replay the next larger graph).

        Every run statically verifies the finished artifact (zero
        GPU-time; see :mod:`repro.analysis`) and refuses to emit one that
        carries error-severity diagnostics."""
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
        self.naive_pointer_matching = naive_pointer_matching
        self.engine: Optional[LLMEngine] = None

    # ------------------------------------------------------------------

    def run(self) -> Tuple[LazyArtifact, OfflineReport]:
        # The phase builds ~300k long-lived objects for a 7B model (trace
        # events, allocator history, graph nodes, the artifact) and drops
        # no reference cycle before it returns.
        with cyclic_gc_paused():
            engine, trace, capture_stage_time = self._capturing_stage()
            artifact, analysis_time, stats = self._analysis_stage(engine,
                                                                  trace)
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
                       artifact: LazyArtifact) -> int:
        """Lint-on-materialize: never emit an artifact that cannot restore."""
        from repro import analysis
        from repro.errors import LintError
        report = analysis.lint_artifact(artifact, catalog=engine.catalog)
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
                        trace: Trace) -> Tuple[LazyArtifact, float, Dict]:
        config = self.config
        driver = engine.process.driver
        catalog = engine.catalog
        capture_artifacts = engine.capture_artifacts
        index = AllocationIndex(trace)

        # Allocation bookkeeping: structure prefix + replay suffix (§4.2).
        weight_count = config.weight_buffer_count()
        allocs = trace.alloc_columns()
        if len(allocs.seq) < weight_count:
            raise MaterializationError(
                f"trace has {len(allocs.seq)} allocations, expected at "
                f"least {weight_count} structure-init weight buffers")
        tag_ids = trace.tag_ids
        if (allocs.tag[:weight_count] != tag_ids.get("weight", -1)).any():
            raise MaterializationError(
                "structure-init prefix contains non-weight allocations; "
                "the deterministic-control-flow assumption is violated")
        anchors = {}
        for tag in ("kv", "graph_input", "graph_output"):
            tagged = allocs.alloc_index[allocs.tag == tag_ids.get(tag, -1)]
            anchors[tag] = int(tagged[-1]) if len(tagged) else -1
        if anchors["kv"] < 0:
            raise MaterializationError("trace contains no KV region allocation")

        # Per-graph pointer analysis, in the order capture ran.
        captured = trace.launch_columns(captured_only=True)
        kernel_libraries: Dict[str, str] = {}
        cursor = 0
        totals = AnalysisStats()
        graphs: Dict[int, GraphRows] = {}
        for batch_size in sorted(capture_artifacts.graphs, reverse=True):
            graph = capture_artifacts.graphs[batch_size]
            node_launches = captured.take(cursor, cursor + graph.num_nodes)
            cursor += graph.num_nodes
            if len(node_launches.seq) != graph.num_nodes:
                raise MaterializationError(
                    f"captured-launch trace is short for batch {batch_size}")
            params, stats = analyze_graph_params(
                index, node_launches, naive=self.naive_pointer_matching)
            totals.pointer_params += stats.pointer_params
            totals.const_params += stats.const_params
            totals.interior_pointers += stats.interior_pointers
            totals.demoted_false_positives += stats.demoted_false_positives
            columns = graph.columns
            _check_node_kernels(driver, columns.kernel_addresses,
                                node_launches)
            names = node_launches.kernel_names()
            for kernel_name in dict.fromkeys(names):
                if kernel_name not in kernel_libraries:
                    kernel_libraries[kernel_name] = \
                        catalog.kernel(kernel_name).library
            # The launch columns carry the nodes' parameter sizes: both
            # were recorded from the same parameter lists.
            graphs[batch_size] = GraphRows(
                names, columns.batch_dims, node_launches.count,
                node_launches.sizes, params, columns.edges,
                graph.exec_meta.param_bytes, graph.exec_meta.num_tokens)
        if cursor != len(captured.seq):
            raise MaterializationError(
                f"{len(captured.seq) - cursor} captured launches were not "
                f"attributed to any graph")

        # Classification and trigger plans read the packed tables; their
        # results fill the metadata entries packed empty here.
        permanent_contents: Dict[str, list] = {}
        trigger_plans: List[list] = []
        template = config.kernel_template()
        artifact = pack_artifact({
            "model_name": config.name,
            "gpu_name": self.cost_model.gpu.name,
            "format_version": ARTIFACT_FORMAT_VERSION,
            "kv_bytes": engine.kv_bytes,
            "kv_num_blocks": engine.kv_region.num_blocks,
            "kv_layer_stride": engine.kv_region.layer_stride,
            "kv_alloc_index": anchors["kv"],
            "structure_prefix": [
                (size, trace.tags[tag]) for size, tag in zip(
                    allocs.size[:weight_count].tolist(),
                    allocs.tag[:weight_count].tolist())],
            "graph_input_alloc_index": anchors["graph_input"],
            "graph_output_alloc_index": anchors["graph_output"],
            "capture_marker": capture_artifacts.capture_marker,
            "kernel_libraries": kernel_libraries,
            "permanent_contents": permanent_contents,
            # First-layer triggering (§5.2): prologue + first layer.
            "first_layer_nodes": 1 + len(template.layer_kernels),
            "trigger_plans": trigger_plans,
            "stats": {},
        }, _replay_table(trace, int(allocs.seq[weight_count - 1])), graphs)

        # Copy-free contents classification (§4.3).
        tables = [artifact.graph_table(batch) for batch in artifact.batches]
        pointer_slots = [table.param_kinds == POINTER_CODE
                         for table in tables]
        referenced = np.unique(np.concatenate(
            [table.param_values[mask] for table, mask
             in zip(tables, pointer_slots)] or [[]])).tolist()
        plan = classify_buffers(trace, capture_artifacts.capture_marker,
                                referenced)
        permanent_bytes = 0
        for alloc_index in sorted(plan.permanent):
            buffer = engine.process.allocator.buffer_by_alloc_index(
                alloc_index)
            payload = buffer.payload
            if payload is None:
                raise MaterializationError(
                    f"permanent buffer {alloc_index} has no contents to dump")
            permanent_contents[str(alloc_index)] = payload.tolist()
            permanent_bytes += buffer.size

        # Handwritten fallbacks for modules the first layer misses (§5.1).
        trigger_plans.extend(_trigger_plans(artifact, catalog))

        total_nodes = artifact.total_nodes
        analysis_time = (self.cost_model.analysis_per_node * total_nodes
                         + self.cost_model.artifact_write_base)
        permanent = np.array(sorted(plan.permanent), dtype=np.int64)
        magic_kernels = 0     # nodes with a pointer into a permanent buffer
        for table, mask in zip(tables, pointer_slots):
            hits = np.cumsum(mask & np.isin(table.param_values, permanent))
            magic_kernels += int(np.count_nonzero(np.diff(np.concatenate(
                ([0], hits))[table.param_offsets])))
        stats = {
            "total_nodes": float(total_nodes),
            "pointer_params": float(totals.pointer_params),
            "const_params": float(totals.const_params),
            "interior_pointers": float(totals.interior_pointers),
            "demoted_false_positives": float(totals.demoted_false_positives),
            "pre_capture_buffers": float(len(plan.pre_capture)),
            "temporary_buffers": float(len(plan.temporary)),
            "permanent_buffers": float(len(plan.permanent)),
            "permanent_bytes": float(permanent_bytes),
            "permanent_kernel_fraction": (
                magic_kernels / total_nodes if total_nodes else 0.0),
            "replay_events": float(artifact.total_replay_events),
        }
        return artifact, analysis_time, stats


def _check_node_kernels(driver, addresses: np.ndarray,
                        launches) -> None:
    """Each node's kernel (``cuFuncGetName`` of its address) must be the
    kernel its captured launch named; asked once per distinct (address,
    launch kernel) pair."""
    distinct, address_ids = np.unique(addresses, return_inverse=True)
    table = len(launches.kernels)
    pairs, first = np.unique(address_ids.reshape(-1) * table
                             + launches.kernel, return_index=True)
    names = [(driver.cu_func_get_name(int(distinct[pair // table])),
              launches.kernels[pair % table][0])
             for pair in pairs.tolist()]
    bad = [position for position, (node_name, kernel_name)
           in enumerate(names) if node_name != kernel_name]
    if bad:
        node_name, kernel_name = names[min(bad, key=lambda p: first[p])]
        raise MaterializationError(
            f"node/launch mismatch: {node_name} vs {kernel_name}")


def _replay_table(trace: Trace, boundary_seq: int) -> ReplayTable:
    """The replay suffix: the trace's (de)allocation events after
    ``boundary_seq``, in stream order, as :func:`pack_artifact` columns."""
    allocs, frees = trace.alloc_columns(), trace.free_columns()
    empties = np.array(trace.empty_cache_seq, dtype=np.int64)
    a, f, e = (seq > boundary_seq for seq in (allocs.seq, frees.seq, empties))
    blank, default = len(trace.tags), len(trace.pools)   # "", "default"

    def fill(mask: np.ndarray, value: int) -> np.ndarray:
        return np.full(np.count_nonzero(mask), value, dtype=np.int64)

    # kind code, alloc index, size, pooled, tag id, pool id: per kind.
    parts = ((fill(a, 0), allocs.alloc_index[a], allocs.size[a], fill(a, 0),
              allocs.tag[a], allocs.pool[a]),
             (fill(f, 1), frees.alloc_index[f], fill(f, 0), frees.pooled[f],
              fill(f, blank), fill(f, default)),
             (fill(e, 2), fill(e, -1), fill(e, 0), fill(e, 0), fill(e, blank),
              fill(e, default)))
    order = np.argsort(np.concatenate(
        (allocs.seq[a], frees.seq[f], empties[e])), kind="stable")
    return ReplayTable(*[np.concatenate(column)[order]
                         for column in zip(*parts)],
                       trace.tags + [""], trace.pools + ["default"])


def _trigger_plans(artifact: LazyArtifact, catalog) -> List[list]:
    """Handwritten triggering kernels for modules first-layer misses (§5.1).

    A module is already covered if a first-layer kernel lives in it (the
    first-layer warm-up loads it) or if any of its needed kernels is visible
    (the dlsym path loads it).  Whatever remains needs an explicit trigger:
    we reuse one captured node's parameters to launch a representative
    kernel of the module eagerly.  Returns the metadata rows
    ``[kernel_name, [batch_size, node_index]]``.
    """
    names = artifact.kernel_name_table()
    specs = [catalog.kernel(name) for name in names]
    modules = [(spec.library, spec.module) for spec in specs]
    first_layer = artifact.first_layer_nodes
    # module -> the first node (in capture order) running one of its kernels
    needed: Dict[Tuple[str, str], Tuple[str, int, int]] = {}
    covered = set()
    for batch_size in sorted(artifact.batches, reverse=True):
        kernel_ids = artifact.graph_table(batch_size).kernel_ids
        covered.update(modules[k]
                       for k in np.unique(kernel_ids[:first_layer]).tolist())
        present, first_index = np.unique(kernel_ids, return_index=True)
        for node_index, k in sorted(zip(first_index.tolist(),
                                        present.tolist())):
            if not specs[k].hidden:
                covered.add(modules[k])
            needed.setdefault(modules[k], (names[k], batch_size, node_index))
    return [[kernel_name, [batch_size, node_index]]
            for module_key, (kernel_name, batch_size, node_index)
            in sorted(needed.items()) if module_key not in covered]


def run_offline(config, **kwargs) -> Tuple[LazyArtifact, OfflineReport]:
    """Convenience wrapper: materialize ``config`` with default settings."""
    return OfflinePhase(config, **kwargs).run()
