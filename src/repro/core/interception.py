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
    ``seq`` = the number of events recorded before it.  The list appends
    are bound once here: they run once per hook call.  A stamped block of
    layers extends every column once (:meth:`on_block`).
    """

    def __init__(self):
        self.trace = trace = Trace()
        self._seq = 0
        self._alloc = tuple(column.append for column in trace.alloc_lists)
        self._free = tuple(column.append for column in trace.free_lists)
        launches = trace.launch_lists
        self._launch = (*[column.append for column in launches[:5]],
                        launches.sizes.extend, launches.values.extend)
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
        allocs = seqs[kinds == ALLOC_EVENT].tolist()
        frees = seqs[kinds == FREE_EVENT].tolist()
        launches = seqs[kinds == LAUNCH_EVENT].tolist()
        trace.stamped_allocations += len(allocs)
        trace.stamped_launches += len(launches)
        tag = intern(trace.tags, trace.tag_ids, block.tag)
        pool = intern(trace.pools, trace.pool_ids, block.pool)
        for column, values in zip(trace.alloc_lists, (
                allocs, block.alloc_index.tolist(), block.address.tolist(),
                block.size.tolist(), [tag] * len(allocs),
                [pool] * len(allocs))):
            column.extend(values)
        for column, values in zip(trace.free_lists, (
                frees, block.freed_index.tolist(),
                block.freed_address.tolist(), [True] * len(frees))):
            column.extend(values)
        kernels = np.array([intern(trace.kernels, trace.kernel_ids, kernel)
                            for kernel in block.kernel_table],
                           dtype=np.int64)
        for column, values in zip(trace.launch_lists, (
                launches, kernels[block.kernels].tolist(),
                block.param_counts.tolist(),
                [self._dims_id(block.launch_dims)] * len(launches),
                [block.captured] * len(launches),
                block.param_sizes.tolist(), block.param_values.tolist())):
            column.extend(values)


def attach(process: CudaProcess) -> TraceInterceptor:
    """Hook a fresh tracer onto ``process`` (start of the offline phase)."""
    interceptor = TraceInterceptor()
    process.add_interceptor(interceptor)
    return interceptor


def detach(process: CudaProcess, interceptor: TraceInterceptor) -> Trace:
    """Unhook the tracer and hand back its completed trace."""
    process.remove_interceptor(interceptor)
    return interceptor.trace
