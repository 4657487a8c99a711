"""Interceptors hooking the allocator and ``cudaLaunchKernel`` (§3, §4.1).

Medusa's offline capturing stage attaches a :class:`TraceInterceptor` to the
simulated process before the cold start begins; every allocation, free, and
kernel launch lands in one ordered :class:`repro.core.trace.Trace`.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.core.trace import Trace, intern
from repro.simgpu.memory import Buffer
from repro.simgpu.process import (
    ALLOC_EVENT,
    FREE_EVENT,
    LAUNCH_EVENT,
    CudaProcess,
    EventBlock,
    Interceptor,
)
from repro.simgpu.stream import LaunchRecord


class TraceInterceptor(Interceptor):
    """Builds the offline trace from the process's hook callbacks.

    Each hook appends its event to the trace's columns for that kind, with
    ``seq`` = the number of events recorded before it.  The appends to the
    columns' pending lists are bound once here: they run once per hook
    call.  A stamped block appends its arrays to every column once
    (:meth:`on_block`).
    """

    def __init__(self):
        self.trace = trace = Trace()
        self._seq = 0
        self._alloc = tuple(column.pending.append
                            for column in trace.alloc_data)
        self._free = tuple(column.pending.append
                           for column in trace.free_data)
        launches = trace.launch_data
        self._launch = (*[column.pending.append for column in launches[:5]],
                        launches.sizes.pending.extend,
                        launches.values.pending.extend)
        # launch_dims items (insertion order) -> dims id; the trace's table
        # holds the sorted tuple.  A capture uses a handful of distinct dims.
        self._dims: Dict[Tuple[Tuple[str, int], ...], int] = {}

    def on_alloc(self, buffer: Buffer) -> None:
        seq = self._seq
        self._seq = seq + 1
        trace = self.trace
        seqs, indices, addresses, sizes, tags, pools = self._alloc
        seqs(seq)
        indices(buffer.alloc_index)
        addresses(buffer.address)
        sizes(buffer.size)
        tags(intern(trace.tags, trace.tag_ids, buffer.tag))
        pools(intern(trace.pools, trace.pool_ids, buffer.pool))

    def on_free(self, buffer: Buffer) -> None:
        # The hook runs after the free: a cudaFree has already set
        # ``buffer.live`` to False, while a pool free leaves it True.  So
        # ``live`` is exactly the pooled flag.
        seq = self._seq
        self._seq = seq + 1
        seqs, indices, addresses, pooled = self._free
        seqs(seq)
        indices(buffer.alloc_index)
        addresses(buffer.address)
        pooled(buffer.live)

    def on_empty_cache(self) -> None:
        self.trace.empty_cache_seq.append(self._seq)
        self._seq += 1

    def _dims_id(self, launch_dims) -> int:
        items = tuple(launch_dims.items())
        dims = self._dims.get(items)
        if dims is None:
            trace = self.trace
            dims = self._dims[items] = intern(trace.dims, trace.dims_ids,
                                              tuple(sorted(items)))
        return dims

    def on_launch(self, record: LaunchRecord) -> None:
        seq = self._seq
        self._seq = seq + 1
        trace = self.trace
        dims = self._dims_id(record.launch_dims)
        params = record.params
        seqs, kernels, counts, dims_ids, captured, sizes, values = \
            self._launch
        seqs(seq)
        kernels(intern(trace.kernels, trace.kernel_ids,
                       (record.kernel_name, record.library)))
        counts(len(params))
        dims_ids(dims)
        captured(record.captured)
        sizes([p.size for p in params])
        values([p.value for p in params])

    def on_block(self, block: EventBlock) -> None:
        trace = self.trace
        kinds = block.kinds
        seqs = np.arange(self._seq, self._seq + kinds.size)
        self._seq += kinds.size
        allocs = seqs[kinds == ALLOC_EVENT]
        frees = seqs[kinds == FREE_EVENT]
        launches = seqs[kinds == LAUNCH_EVENT]
        trace.stamped_allocations += allocs.size
        trace.stamped_launches += launches.size
        tag = intern(trace.tags, trace.tag_ids, block.tag)
        pool = intern(trace.pools, trace.pool_ids, block.pool)
        for column, values in zip(trace.alloc_data, (
                allocs, block.alloc_index, block.address, block.size,
                np.full(allocs.size, tag), np.full(allocs.size, pool))):
            column.add(values)
        for column, values in zip(trace.free_data, (
                frees, block.freed_index, block.freed_address,
                np.ones(frees.size, dtype=np.int64))):
            column.add(values)
        kernels = np.array([intern(trace.kernels, trace.kernel_ids, kernel)
                            for kernel in block.kernel_table],
                           dtype=np.int64)
        for column, values in zip(trace.launch_data, (
                launches, kernels[block.kernels], block.param_counts,
                np.full(launches.size, self._dims_id(block.launch_dims)),
                np.full(launches.size, int(block.captured)),
                block.param_sizes, block.param_values)):
            column.add(values)


def attach(process: CudaProcess) -> TraceInterceptor:
    """Hook a fresh tracer onto ``process`` (start of the offline phase)."""
    interceptor = TraceInterceptor()
    process.add_interceptor(interceptor)
    return interceptor


def detach(process: CudaProcess, interceptor: TraceInterceptor) -> Trace:
    """Unhook the tracer and hand back its completed trace."""
    process.remove_interceptor(interceptor)
    return interceptor.trace
