"""The CUDA-graph capturing stage: warm-up + capture per batch size (§2.1 ❺).

vLLM captures decode graphs for 35 batch sizes, largest first, each preceded
by a warm-up forwarding (capture would fail otherwise — library init, module
loads, and workspace setup all synchronize).  The persistent graph I/O
buffers are allocated *before* the first capture, which is why their contents
never need materializing (§4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.engine.kvcache import KVCacheRegion
from repro.models.config import ModelConfig
from repro.models.model import ForwardContext, Model
from repro.simgpu.graph import CudaGraph, CudaGraphExec, GraphExecMeta
from repro.simgpu.kernels import PAYLOAD_DIM
from repro.simgpu.memory import Buffer
from repro.simgpu.process import CudaProcess


@dataclass
class CaptureArtifacts:
    """Everything the capture stage leaves behind inside the process."""

    graph_input: Buffer
    graph_output: Buffer
    capture_marker: int                      # alloc index where capturing began
    graphs: Dict[int, CudaGraph] = field(default_factory=dict)
    execs: Dict[int, CudaGraphExec] = field(default_factory=dict)

    def context(self, kv_region: KVCacheRegion) -> ForwardContext:
        return ForwardContext(
            input_buffer=self.graph_input,
            output_buffer=self.graph_output,
            kv_buffer=kv_region.buffer,
            kv_layer_stride=kv_region.layer_stride,
        )


def allocate_graph_io(process: CudaProcess, config: ModelConfig) -> tuple:
    """The persistent input/output buffers every captured graph uses."""
    max_batch = max(config.capture_batch_sizes)
    io_bytes = max(256, max_batch * config.hidden_size * 2)
    graph_input = process.malloc(
        io_bytes, tag="graph_input",
        payload=np.zeros((PAYLOAD_DIM, PAYLOAD_DIM)))
    graph_output = process.malloc(
        io_bytes, tag="graph_output",
        payload=np.zeros((PAYLOAD_DIM, PAYLOAD_DIM)))
    return graph_input, graph_output


def prepare_capture_stage(process: CudaProcess, model: Model) -> CaptureArtifacts:
    """Allocate persistent graph I/O and open a fresh workspace epoch.

    Opening a fresh per-kernel workspace epoch mirrors PyTorch allocating a
    fresh cuBLAS workspace for graph capture: the warm-ups re-acquire the
    permanent magic buffers *inside* the capture window (§4.3).
    """
    graph_input, graph_output = allocate_graph_io(process, model.config)
    process.reset_magic_workspaces()
    return CaptureArtifacts(
        graph_input=graph_input,
        graph_output=graph_output,
        capture_marker=process.allocator.num_allocations,
    )


def capture_one(process: CudaProcess, model: Model,
                artifacts: CaptureArtifacts, kv_region: KVCacheRegion,
                batch_size: int) -> None:
    """Warm up and capture the decode graph of one batch size.

    All capture-stage transients live in the private graph memory pool, as
    under PyTorch: ordinary serving allocations can never claim (and later
    corrupt) blocks the captured graphs still execute through.
    """
    config = model.config
    ctx = artifacts.context(kv_region)
    with process.memory_pool("graph"):
        model.forward(batch_size, batch_size, ctx)          # warm-up
        process.default_stream.begin_capture(GraphExecMeta(
            param_bytes=config.param_bytes,
            num_tokens=batch_size,
            batch_size=batch_size))
        model.forward(batch_size, batch_size, ctx)          # capturing
        graph = process.default_stream.end_capture()
        artifacts.graphs[batch_size] = graph
        artifacts.execs[batch_size] = graph.instantiate(process)


def run_capture_stage(process: CudaProcess, model: Model,
                      kv_region: KVCacheRegion,
                      batch_sizes: Optional[List[int]] = None
                      ) -> CaptureArtifacts:
    """Warm up and capture one decode graph per batch size (largest first)."""
    artifacts = prepare_capture_stage(process, model)
    sizes = batch_sizes if batch_sizes is not None else \
        sorted(model.config.capture_batch_sizes, reverse=True)
    for batch_size in sizes:
        capture_one(process, model, artifacts, kv_region, batch_size)
    return artifacts
