"""Interceptors hooking the allocator and ``cudaLaunchKernel`` (§3, §4.1).

Medusa's offline capturing stage attaches a :class:`TraceInterceptor` to the
simulated process before the cold start begins; every allocation, free, and
kernel launch lands in one ordered :class:`repro.core.trace.Trace`.
"""

from __future__ import annotations

from typing import Dict, Tuple

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

# Rows are built as ``_row(EventClass, fields)``: the NamedTuple's own
# ``__new__`` binds each field by name, which costs more than the tuple
# itself on a path that runs once per hook call.
_row = tuple.__new__


class TraceInterceptor(Interceptor):
    """Builds the offline trace from the process's hook callbacks.

    Each hook appends one row to ``trace.events`` and to its per-kind list
    (a free also updates ``trace.freed``).  A row's ``seq`` is its position
    in ``trace.events``.
    """

    def __init__(self):
        self.trace = trace = Trace()
        self._events = trace.events
        # launch_dims items (insertion order) -> the sorted tuple a row
        # stores; a capture launches with a handful of distinct dims.
        self._dims: Dict[Tuple[Tuple[str, int], ...],
                         Tuple[Tuple[str, int], ...]] = {}

    def on_alloc(self, buffer: Buffer) -> None:
        events = self._events
        event = _row(AllocTraceEvent, (
            len(events), buffer.alloc_index, buffer.address, buffer.size,
            buffer.tag, buffer.pool))
        events.append(event)
        self.trace.alloc_events.append(event)

    def on_free(self, buffer: Buffer) -> None:
        # The hook runs after the free: a cudaFree has already set
        # ``buffer.live`` to False, while a pool free leaves it True.  So
        # ``live`` is exactly the pooled flag.
        events = self._events
        seq = len(events)
        alloc_index = buffer.alloc_index
        event = _row(FreeTraceEvent, (seq, alloc_index, buffer.address,
                                      buffer.live))
        events.append(event)
        trace = self.trace
        trace.free_events.append(event)
        trace.freed[alloc_index] = seq

    def on_empty_cache(self) -> None:
        events = self._events
        events.append(_row(EmptyCacheTraceEvent, (len(events),)))

    def on_launch(self, record: LaunchRecord) -> None:
        params = record.params
        items = tuple(record.launch_dims.items())
        dims = self._dims.get(items)
        if dims is None:
            dims = self._dims[items] = tuple(sorted(items))
        events = self._events
        event = _row(LaunchTraceEvent, (
            len(events), record.kernel_name, record.library,
            tuple([p.size for p in params]),
            tuple([p.value for p in params]),
            dims, record.captured))
        events.append(event)
        self.trace.launch_events.append(event)


def attach(process: CudaProcess) -> TraceInterceptor:
    """Hook a fresh tracer onto ``process`` (start of the offline phase)."""
    interceptor = TraceInterceptor()
    process.add_interceptor(interceptor)
    return interceptor


def detach(process: CudaProcess, interceptor: TraceInterceptor) -> Trace:
    """Unhook the tracer and hand back its completed trace."""
    process.remove_interceptor(interceptor)
    return interceptor.trace
