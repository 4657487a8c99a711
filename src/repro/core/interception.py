"""Interceptors hooking the allocator and ``cudaLaunchKernel`` (§3, §4.1).

Medusa's offline capturing stage attaches a :class:`TraceInterceptor` to the
simulated process before the cold start begins; every allocation, free, and
kernel launch lands in one ordered :class:`repro.core.trace.Trace`.
"""

from __future__ import annotations

from typing import Optional

from repro.core.trace import (
    AllocTraceEvent,
    EmptyCacheTraceEvent,
    FreeTraceEvent,
    LaunchTraceEvent,
    Trace,
)
from repro.simgpu.memory import Buffer
from repro.simgpu.process import CudaProcess, Interceptor
from repro.simgpu.stream import LaunchRecord


class TraceInterceptor(Interceptor):
    """Builds the offline trace from the process's hook callbacks."""

    def __init__(self):
        self.trace = Trace()
        self._seq = 0

    def _next_seq(self) -> int:
        seq = self._seq
        self._seq += 1
        return seq

    def on_alloc(self, buffer: Buffer) -> None:
        self.trace.events.append(AllocTraceEvent(
            seq=self._next_seq(),
            alloc_index=buffer.alloc_index,
            address=buffer.address,
            size=buffer.size,
            tag=buffer.tag,
            pool=buffer.pool,
        ))

    def on_free(self, buffer: Buffer) -> None:
        # The hook runs after the free: a cudaFree has already set
        # ``buffer.live`` to False, while a pool free leaves it True.  So
        # ``live`` is exactly the pooled flag.
        self.trace.events.append(FreeTraceEvent(
            seq=self._next_seq(),
            alloc_index=buffer.alloc_index,
            address=buffer.address,
            pooled=buffer.live,
        ))

    def on_empty_cache(self) -> None:
        self.trace.events.append(EmptyCacheTraceEvent(seq=self._next_seq()))

    def on_launch(self, record: LaunchRecord) -> None:
        params = record.params
        self.trace.events.append(LaunchTraceEvent(
            seq=self._next_seq(),
            kernel_name=record.kernel_name,
            library=record.library,
            param_sizes=tuple([p.size for p in params]),
            param_values=tuple([p.value for p in params]),
            launch_dims=tuple(sorted(record.launch_dims.items())),
            captured=record.captured,
        ))


def attach(process: CudaProcess) -> TraceInterceptor:
    """Hook a fresh tracer onto ``process`` (start of the offline phase)."""
    interceptor = TraceInterceptor()
    process.add_interceptor(interceptor)
    return interceptor


def detach(process: CudaProcess, interceptor: TraceInterceptor) -> Trace:
    """Unhook the tracer and hand back its completed trace."""
    process.remove_interceptor(interceptor)
    return interceptor.trace
