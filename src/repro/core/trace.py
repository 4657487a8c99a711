"""Offline capture-stage traces: the raw material of Medusa's analysis.

The trace is one globally ordered stream of allocation, free, empty-cache,
and kernel-launch events, exactly what interposing on the allocator and on
``cudaLaunchKernel`` yields (§4.1).  Sequence numbers give the "backwards
from its corresponding cudaLaunchKernel()" ordering the trace-based matching
needs.

A capture records ~76k events for a 7B model, so the trace keeps each kind
as typed int64 columns (:class:`repro.utils.columns.IntColumn`, strings
interned into tables): per-call hooks append to a list, stamped blocks
queue their arrays, and the first read builds each column once, so the
analysis reads numpy arrays with no round trip through Python ints
(object arrays where a value does not fit int64).  Event rows
(``NamedTuple`` s) are views, built on demand for tests and for traces
written by hand.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.utils.columns import IntColumn

# Rows are built as ``_row(EventClass, fields)``: the NamedTuple's own
# ``__new__`` binds each field by name, which costs more than the tuple.
_row = tuple.__new__


class AllocTraceEvent(NamedTuple):
    seq: int
    alloc_index: int      # global allocation index in the process
    address: int
    size: int
    tag: str
    pool: str = "default"


class FreeTraceEvent(NamedTuple):
    seq: int
    alloc_index: int      # allocation being freed
    address: int
    pooled: bool


class EmptyCacheTraceEvent(NamedTuple):
    seq: int


class LaunchTraceEvent(NamedTuple):
    seq: int
    kernel_name: str
    library: str
    param_sizes: Tuple[int, ...]
    param_values: Tuple[int, ...]
    launch_dims: Tuple[Tuple[str, int], ...]
    captured: bool        # recorded into a CUDA graph (vs eager warm-up)


# The per-kind columns: IntColumns while recording, int64 arrays (object
# where a value does not fit) from ``Trace.*_columns()``.

class AllocColumns(NamedTuple):
    seq: Sequence[int]
    alloc_index: Sequence[int]
    address: Sequence[int]
    size: Sequence[int]
    tag: Sequence[int]            # ids into Trace.tags
    pool: Sequence[int]           # ids into Trace.pools


class FreeColumns(NamedTuple):
    seq: Sequence[int]
    alloc_index: Sequence[int]
    address: Sequence[int]
    pooled: Sequence[int]


class LaunchColumns(NamedTuple):
    """Launch ``i`` owns ``count[i]`` consecutive slots of the flat
    ``sizes`` and ``values``."""
    seq: Sequence[int]
    kernel: Sequence[int]         # ids into ``kernels``
    count: Sequence[int]
    dims: Sequence[int]           # ids into Trace.dims
    captured: Sequence[int]
    sizes: Sequence[int]
    values: Sequence[int]
    kernels: List[Tuple[str, str]]    # (kernel name, library) by id

    def take(self, start: int, stop: int) -> "LaunchColumns":
        """Launches ``start:stop`` (clipped to the end)."""
        first, last = (int(self.count[:i].sum()) for i in (start, stop))
        return LaunchColumns(*[column[start:stop] for column in self[:5]],
                             self.sizes[first:last], self.values[first:last],
                             self.kernels)

    def kernel_names(self) -> List[str]:
        return [self.kernels[k][0] for k in self.kernel.tolist()]


def intern(table: list, ids: dict, key) -> int:
    """``key``'s id in ``table`` (appended when new)."""
    found = ids.get(key)
    if found is None:
        found = ids[key] = len(table)
        table.append(key)
    return found


def _lists(columns: tuple) -> tuple:
    """``columns`` (arrays) as lists of Python ints."""
    return columns._make(column if isinstance(column, list)
                         else column.tolist() for column in columns)


class Trace:
    """The full intercepted event stream of one offline capture stage.

    ``alloc_data``, ``free_data`` and ``launch_data`` (one
    :class:`IntColumn` per field) and the ``empty_cache_seq`` list are
    appended as events are recorded, by :meth:`record` or by
    :class:`repro.core.interception.TraceInterceptor`, with seqs ascending
    in record order.  The analysis reads them through the ``*_columns()``
    arrays.  ``events``, ``allocations()``, ``frees()`` and
    ``launches()`` build rows from the columns on every call;
    ``rows_built`` counts them.
    """

    def __init__(self, events: Iterable[tuple] = ()):
        # The interned tables and their key -> id maps.
        self.tags: List[str] = []
        self.pools: List[str] = []
        self.kernels: List[Tuple[str, str]] = []      # (name, library)
        self.dims: List[Tuple[Tuple[str, int], ...]] = []   # sorted items
        self.tag_ids: Dict[str, int] = {}
        self.pool_ids: Dict[str, int] = {}
        self.kernel_ids: Dict[Tuple[str, str], int] = {}
        self.dims_ids: Dict[Tuple[Tuple[str, int], ...], int] = {}
        self.alloc_data = AllocColumns(
            *(IntColumn() for _ in AllocColumns._fields))
        self.free_data = FreeColumns(
            *(IntColumn() for _ in FreeColumns._fields))
        self.launch_data = LaunchColumns(*(IntColumn() for _ in range(7)),
                                         self.kernels)
        self.empty_cache_seq: List[int] = []
        #: Rows the views have built: a capture and its analysis build none.
        self.rows_built = 0
        #: Allocations and launches recorded from stamped layer blocks
        #: (the rest came one hook call each).
        self.stamped_allocations = 0
        self.stamped_launches = 0
        for event in events:
            self.record(event)

    def record(self, event: tuple) -> None:
        """Append one event row to its kind's columns."""
        kind = type(event)
        if kind is AllocTraceEvent:
            fields = (*event[:4], intern(self.tags, self.tag_ids, event.tag),
                      intern(self.pools, self.pool_ids, event.pool))
            columns = self.alloc_data
        elif kind is FreeTraceEvent:
            fields, columns = event, self.free_data
        elif kind is EmptyCacheTraceEvent:
            self.empty_cache_seq.append(event.seq)
            return
        elif kind is LaunchTraceEvent:
            fields = (event.seq,
                      intern(self.kernels, self.kernel_ids, event[1:3]),
                      len(event.param_sizes),
                      intern(self.dims, self.dims_ids, event.launch_dims),
                      event.captured)
            columns = self.launch_data
            columns.sizes.pending.extend(event.param_sizes)
            columns.values.pending.extend(event.param_values)
        else:
            raise TypeError(f"not a trace event: {event!r}")
        for column, value in zip(columns, fields):
            column.pending.append(value)

    @property
    def num_events(self) -> int:
        return (len(self.alloc_data.seq) + len(self.free_data.seq)
                + len(self.empty_cache_seq) + len(self.launch_data.seq))

    # -- columns (what the analysis reads) -------------------------------

    def _arrays(self, data: tuple) -> tuple:
        """``data``'s columns as read-only arrays (each column caches its
        own until it records again)."""
        return data._make(column if column is self.kernels
                          else column.array() for column in data)

    def alloc_columns(self) -> AllocColumns:
        return self._arrays(self.alloc_data)

    def free_columns(self) -> FreeColumns:
        return self._arrays(self.free_data)

    def launch_columns(self, captured_only: bool = False) -> LaunchColumns:
        """Every launch, or only those captured into graphs."""
        launches = self._arrays(self.launch_data)
        if captured_only:
            captured = launches.captured.astype(bool)
            slots = np.repeat(captured, launches.count)
            launches = LaunchColumns(
                *[column[captured] for column in launches[:5]],
                launches.sizes[slots], launches.values[slots], self.kernels)
        return launches

    # -- row views (built on demand) -------------------------------------

    def _built(self, rows: list) -> list:
        self.rows_built += len(rows)
        return rows

    def allocations(self) -> List[AllocTraceEvent]:
        tags, pools = self.tags, self.pools
        return self._built([
            _row(AllocTraceEvent, (*row[:4], tags[row[4]], pools[row[5]]))
            for row in zip(*_lists(self.alloc_columns()))])

    def frees(self) -> List[FreeTraceEvent]:
        return self._built([
            _row(FreeTraceEvent, (*row[:3], bool(row[3])))
            for row in zip(*_lists(self.free_columns()))])

    def launches(self, captured_only: bool = False) -> List[LaunchTraceEvent]:
        columns = _lists(self.launch_columns())
        starts = np.cumsum([0, *columns.count]).tolist()
        return self._built([
            _row(LaunchTraceEvent, (
                seq, *self.kernels[kernel],
                tuple(columns.sizes[start:start + count]),
                tuple(columns.values[start:start + count]),
                self.dims[dims], bool(captured)))
            for seq, kernel, count, dims, captured, start in zip(
                *columns[:5], starts)
            if captured or not captured_only])

    @property
    def events(self) -> List[tuple]:
        """The whole stream as rows, in seq order."""
        empty = self._built([_row(EmptyCacheTraceEvent, (seq,))
                             for seq in self.empty_cache_seq])
        rows = self.allocations() + self.frees() + empty + self.launches()
        return sorted(rows, key=lambda row: row[0])
