"""Simulated CUDA substrate.

This package stands in for the CUDA driver + GPU hardware the paper runs on.
It reproduces, as first-class mechanisms, every property Medusa's
materialization must contend with:

- ``memory``: device allocation with non-deterministic base addresses and
  LIFO free-list reuse (the source of pointer aliasing / false positives);
- ``libraries`` / ``modules`` / ``driver``: per-process ASLR, lazy
  module-granularity kernel loading, symbol tables with *hidden* kernels
  (cuBLAS-like), ``dlsym``/``cudaGetFuncBySymbol``/
  ``cuModuleEnumerateFunctions``/``cuFuncGetName`` equivalents;
- ``stream`` / ``capture`` / ``graph``: stream capture with the real capture
  restrictions (synchronization is prohibited, first-touch library
  initialization synchronizes → warm-up is mandatory), and graph replay that
  executes through the *raw addresses* recorded in the nodes;
- ``costmodel`` / ``clock``: an analytic timing model calibrated against the
  paper's measured numbers, driving a simulated clock.

Kernels carry real (small) numpy compute, so a wrongly restored pointer or
kernel address produces an observably wrong output or an illegal-access
fault — the exact failure modes the paper's validation step (§4) guards
against.
"""

from repro.simgpu.clock import SimClock
from repro.simgpu.costmodel import CostModel, GpuProperties
from repro.simgpu.graph import (
    CudaGraph,
    CudaGraphExec,
    GraphColumns,
    GraphExecMeta,
)
from repro.simgpu.kernels import KernelParam, KernelSpec, ParamKind, ParamSpec
from repro.simgpu.libraries import DynamicLibrary
from repro.simgpu.memory import Buffer, DeviceAllocator
from repro.simgpu.modules import CudaModule
from repro.simgpu.process import CudaProcess, ExecutionMode
from repro.simgpu.stream import CudaEvent, Stream

__all__ = [
    "Buffer",
    "CostModel",
    "CudaGraph",
    "CudaGraphExec",
    "CudaEvent",
    "CudaModule",
    "CudaProcess",
    "Stream",
    "DeviceAllocator",
    "DynamicLibrary",
    "ExecutionMode",
    "GpuProperties",
    "GraphColumns",
    "GraphExecMeta",
    "KernelParam",
    "KernelSpec",
    "ParamKind",
    "ParamSpec",
    "SimClock",
]
