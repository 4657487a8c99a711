"""A working checkpoint/restore baseline (§9's line of related work).

FaaSnap/Catalyzer/SEUSS-style systems snapshot a launched instance and
restore it wholesale.  For GPUs this only works because the snapshot is
restored at *identical* virtual addresses (CRIU semantics) — raw pointers
inside driver objects, including captured CUDA graphs, stay valid.  This
module implements that world mechanically on the simulated substrate:

- :func:`checkpoint_engine` snapshots a cold-started engine: every live
  buffer (address, declared size, payload), the driver's loaded-module and
  initialized-library state, the magic workspace registry, and the captured
  graphs verbatim (raw addresses included);
- :func:`restore_engine` recreates the *same* process layout (same seed →
  same heap base and ASLR bases), maps every buffer back at its recorded
  address (``DeviceAllocator.map_fixed``), reinstates driver state, and
  adopts the graphs — paying the snapshot's full transfer size.

The contrast with Medusa (§9): this restores gigabytes and is glued to one
address layout, while Medusa's artifact is megabytes and address-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine.capture_runner import CaptureArtifacts
from repro.engine.engine import LLMEngine
from repro.engine.kvcache import KVCacheRegion
from repro.engine.strategies import Strategy
from repro.errors import RestorationError
from repro.simgpu.graph import CudaGraph, GraphColumns, GraphExecMeta
from repro.simgpu.process import ExecutionMode

#: Driver/page-table reattachment cost on restore.
_RESTORE_FIXUP_TIME = 0.25
#: Host-side process image (python heap, runtime, tokenizer, ...).
_HOST_IMAGE_BYTES = int(1.5 * 1024**3)


@dataclass
class BufferSnapshot:
    address: int
    size: int
    tag: str
    pool: str
    payload: Optional[List[List[float]]]


@dataclass
class GraphSnapshot:
    columns: GraphColumns
    exec_meta: GraphExecMeta


@dataclass
class InstanceCheckpoint:
    """The complete state of one cold-started serving instance."""

    model_name: str
    gpu_name: str
    strategy: str
    process_seed: int
    buffers: List[BufferSnapshot] = field(default_factory=list)
    weight_keys: Dict[str, int] = field(default_factory=dict)  # key -> addr
    magic: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    initialized_libraries: List[str] = field(default_factory=list)
    loaded_modules: List[Tuple[str, str]] = field(default_factory=list)
    kv_address: int = 0
    kv_num_blocks: int = 0
    kv_layer_stride: int = 0
    kv_bytes: int = 0
    graph_input_address: int = 0
    graph_output_address: int = 0
    capture_marker: int = 0
    graphs: List[GraphSnapshot] = field(default_factory=list)

    @property
    def device_bytes(self) -> int:
        return sum(snapshot.size for snapshot in self.buffers)

    @property
    def total_bytes(self) -> int:
        """Snapshot transfer size: device image + host process image."""
        return self.device_bytes + _HOST_IMAGE_BYTES


def _copy_columns(columns: GraphColumns) -> GraphColumns:
    """A graph's columns as arrays of their own: a snapshot outlives the
    engine it was taken from and may be restored more than once."""
    return GraphColumns(*(column.copy() for column in columns))


def checkpoint_engine(engine: LLMEngine) -> InstanceCheckpoint:
    """Snapshot a cold-started engine's full instance state."""
    if engine.kv_region is None or engine.capture_artifacts is None:
        raise RestorationError(
            "checkpointing requires a completed cold start with graphs")
    process = engine.process
    checkpoint = InstanceCheckpoint(
        model_name=engine.config.name,
        gpu_name=engine.cost_model.gpu.name,
        strategy=engine.strategy.value,
        process_seed=process.seed,
        kv_address=engine.kv_region.buffer.address,
        kv_num_blocks=engine.kv_region.num_blocks,
        kv_layer_stride=engine.kv_region.layer_stride,
        kv_bytes=engine.kv_bytes or 0,
        graph_input_address=engine.capture_artifacts.graph_input.address,
        graph_output_address=engine.capture_artifacts.graph_output.address,
        capture_marker=engine.capture_artifacts.capture_marker,
        initialized_libraries=[
            lib.name for lib in engine.catalog.libraries()
            if process.driver.library_initialized(lib.name)],
        loaded_modules=list(process.driver.loaded_modules()),
        magic={name: addrs for name, addrs in process._magic.items()},
        weight_keys={key: buffer.address
                     for key, buffer in engine.model.weight_buffers.items()},
    )
    for buffer in sorted(process.allocator.live_buffers,
                         key=lambda b: b.address):
        checkpoint.buffers.append(BufferSnapshot(
            address=buffer.address, size=buffer.size, tag=buffer.tag,
            pool=buffer.pool,
            payload=None if buffer.payload is None
            else buffer.payload.tolist()))
    for graph in engine.capture_artifacts.graphs.values():
        checkpoint.graphs.append(GraphSnapshot(
            columns=_copy_columns(graph.columns),
            exec_meta=replace(graph.exec_meta)))
    return checkpoint


def restore_engine(checkpoint: InstanceCheckpoint,
                   cost_model=None, kv_config=None,
                   mode: ExecutionMode = ExecutionMode.TIMING,
                   ) -> Tuple[LLMEngine, float]:
    """Restore a snapshot into a fresh process at identical addresses.

    Returns (engine, restore_latency).  The restore pays the full snapshot
    transfer (device image + host image over the H2D path) plus driver
    fixup — the baseline's cold-start cost.
    """
    engine = LLMEngine(checkpoint.model_name,
                       Strategy(checkpoint.strategy),
                       seed=checkpoint.process_seed, mode=mode,
                       cost_model=cost_model, kv_config=kv_config)
    process = engine.process
    if engine.cost_model.gpu.name != checkpoint.gpu_name:
        raise RestorationError(
            f"checkpoint from {checkpoint.gpu_name!r} cannot restore on "
            f"{engine.cost_model.gpu.name!r}")
    start = process.clock.now

    # CRIU semantics: map every buffer back at its recorded address.  The
    # fresh process has the same seed, hence the same heap base, so the
    # recorded addresses fall inside this process's heap.
    by_address: Dict[int, object] = {}
    for snapshot in checkpoint.buffers:
        payload = None if snapshot.payload is None \
            else np.array(snapshot.payload, dtype=np.float64)
        buffer = process.allocator.map_fixed(
            snapshot.address, snapshot.size, tag=snapshot.tag,
            pool=snapshot.pool, payload=payload)
        by_address[snapshot.address] = buffer

    # Driver state: loaded modules, initialized libraries, workspaces.
    for library in checkpoint.initialized_libraries:
        process.driver.dlopen(library)
        process.driver.mark_library_initialized(library)
    for library, module in checkpoint.loaded_modules:
        dynamic_library = process.driver.dlopen(library)
        for spec in dynamic_library.modules:
            if spec.name == module:
                process.driver.load_module_for(spec.kernels[0])
    for kernel_name, (addr_a, addr_b) in checkpoint.magic.items():
        process.register_magic(kernel_name, addr_a, addr_b)

    # Engine-level state: weights, KV region, graphs.
    for key, address in checkpoint.weight_keys.items():
        engine.model.weight_buffers[key] = by_address[address]
    engine.kv_bytes = checkpoint.kv_bytes
    engine.kv_region = KVCacheRegion(
        buffer=by_address[checkpoint.kv_address],
        num_blocks=checkpoint.kv_num_blocks,
        block_bytes=engine.kv_config.block_bytes(engine.config),
        layer_stride=checkpoint.kv_layer_stride)
    artifacts = CaptureArtifacts(
        graph_input=by_address[checkpoint.graph_input_address],
        graph_output=by_address[checkpoint.graph_output_address],
        capture_marker=checkpoint.capture_marker)
    for snapshot in checkpoint.graphs:
        graph = CudaGraph(_copy_columns(snapshot.columns),
                          replace(snapshot.exec_meta))
        batch_size = graph.exec_meta.batch_size
        artifacts.graphs[batch_size] = graph
        artifacts.execs[batch_size] = graph.instantiate(process)
    engine.capture_artifacts = artifacts

    # The baseline's cost: stream the whole snapshot back + fix up driver.
    process.clock.advance(
        checkpoint.total_bytes / engine.cost_model.gpu.h2d_bandwidth
        + _RESTORE_FIXUP_TIME)
    return engine, process.clock.now - start
