"""Offline capture-stage traces: the raw material of Medusa's analysis.

The trace is one globally ordered stream of allocation, free, empty-cache,
and kernel-launch events, exactly what interposing on the allocator and on
``cudaLaunchKernel`` yields (§4.1).  Sequence numbers give the "backwards
from its corresponding cudaLaunchKernel()" ordering the trace-based matching
needs.

Each event is an immutable row (a ``NamedTuple``): a capture records ~76k of
them for a 7B model, so a row costs a tuple, not an object with a
``__dict__``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Tuple


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


class Trace:
    """The full intercepted event stream of one offline capture stage.

    ``events`` is the ordered stream.  The per-kind lists hold the same
    rows in the same order, and ``freed`` maps each freed allocation index
    to the seq of its (last) free.  All of them are filled as each event is
    recorded, by :meth:`record` or by
    :class:`repro.core.interception.TraceInterceptor`, so nothing re-splits
    the stream.  The accessors (``allocations()``, ``frees()``,
    ``launches()``, ``freed_alloc_indices()``) return these containers
    themselves, not copies: read them, do not mutate them.
    """

    __slots__ = ("events", "alloc_events", "free_events", "launch_events",
                 "freed")

    def __init__(self, events: Iterable[tuple] = ()):
        self.events: List[tuple] = []
        self.alloc_events: List[AllocTraceEvent] = []
        self.free_events: List[FreeTraceEvent] = []
        self.launch_events: List[LaunchTraceEvent] = []
        self.freed: Dict[int, int] = {}
        for event in events:
            self.record(event)

    def record(self, event: tuple) -> None:
        """Append one event to the stream and to its per-kind list."""
        self.events.append(event)
        kind = type(event)
        if kind is AllocTraceEvent:
            self.alloc_events.append(event)
        elif kind is FreeTraceEvent:
            self.free_events.append(event)
            self.freed[event.alloc_index] = event.seq
        elif kind is LaunchTraceEvent:
            self.launch_events.append(event)

    def allocations(self) -> List[AllocTraceEvent]:
        return self.alloc_events

    def frees(self) -> List[FreeTraceEvent]:
        return self.free_events

    def launches(self) -> List[LaunchTraceEvent]:
        return self.launch_events

    def captured_launches(self) -> List[LaunchTraceEvent]:
        return [e for e in self.launch_events if e.captured]

    def freed_alloc_indices(self) -> Dict[int, int]:
        """alloc_index -> seq of its free event (pool or cudaFree)."""
        return self.freed

    @property
    def num_events(self) -> int:
        return len(self.events)
