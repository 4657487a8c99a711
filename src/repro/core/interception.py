"""Interceptors hooking the allocator and ``cudaLaunchKernel`` (§3, §4.1).

Medusa's offline capturing stage attaches a :class:`TraceInterceptor` to the
simulated process before the cold start begins; every allocation, free, and
kernel launch lands in one ordered :class:`repro.core.trace.Trace`.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.trace import Trace, intern
from repro.simgpu.memory import Buffer
from repro.simgpu.process import CudaProcess, Interceptor
from repro.simgpu.stream import LaunchRecord


class TraceInterceptor(Interceptor):
    """Builds the offline trace from the process's hook callbacks.

    Each hook appends its event to the trace's columns for that kind, with
    ``seq`` = the number of events recorded before it.  The list appends
    are bound once here: they run once per hook call.
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

    def on_launch(self, record: LaunchRecord) -> None:
        seq = self._seq
        self._seq = seq + 1
        trace = self.trace
        items = tuple(record.launch_dims.items())
        dims = self._dims.get(items)
        if dims is None:
            dims = self._dims[items] = intern(trace.dims, trace.dims_ids,
                                              tuple(sorted(items)))
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


def attach(process: CudaProcess) -> TraceInterceptor:
    """Hook a fresh tracer onto ``process`` (start of the offline phase)."""
    interceptor = TraceInterceptor()
    process.add_interceptor(interceptor)
    return interceptor


def detach(process: CudaProcess, interceptor: TraceInterceptor) -> Trace:
    """Unhook the tracer and hand back its completed trace."""
    process.remove_interceptor(interceptor)
    return interceptor.trace
