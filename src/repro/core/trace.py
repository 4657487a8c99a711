"""Offline capture-stage traces: the raw material of Medusa's analysis.

The trace is one globally ordered stream of allocation, free, empty-cache,
and kernel-launch events, exactly what interposing on the allocator and on
``cudaLaunchKernel`` yields (§4.1).  Sequence numbers give the "backwards
from its corresponding cudaLaunchKernel()" ordering the trace-based matching
needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class AllocTraceEvent:
    seq: int
    alloc_index: int      # global allocation index in the process
    address: int
    size: int
    tag: str
    pool: str = "default"


@dataclass(frozen=True)
class FreeTraceEvent:
    seq: int
    alloc_index: int      # allocation being freed
    address: int
    pooled: bool


@dataclass(frozen=True)
class EmptyCacheTraceEvent:
    seq: int


@dataclass(frozen=True)
class LaunchTraceEvent:
    seq: int
    kernel_name: str
    library: str
    param_sizes: Tuple[int, ...]
    param_values: Tuple[int, ...]
    launch_dims: Tuple[Tuple[str, int], ...]
    captured: bool        # recorded into a CUDA graph (vs eager warm-up)


@dataclass
class _KindSplit:
    """``Trace.events`` split by event kind (one pass)."""

    source: List[object]
    length: int
    allocations: List[AllocTraceEvent]
    frees: List[FreeTraceEvent]
    launches: List[LaunchTraceEvent]
    freed: Dict[int, int]

    @classmethod
    def of(cls, events: List[object]) -> "_KindSplit":
        allocations: List[AllocTraceEvent] = []
        frees: List[FreeTraceEvent] = []
        launches: List[LaunchTraceEvent] = []
        for event in events:
            if isinstance(event, AllocTraceEvent):
                allocations.append(event)
            elif isinstance(event, FreeTraceEvent):
                frees.append(event)
            elif isinstance(event, LaunchTraceEvent):
                launches.append(event)
        return cls(events, len(events), allocations, frees, launches,
                   {e.alloc_index: e.seq for e in frees})


@dataclass
class Trace:
    """The full intercepted event stream of one offline capture stage.

    The per-kind views are split out of ``events`` in one pass, on first
    use, and re-split only when ``events`` has changed length (events are
    only ever appended).
    """

    events: List[object] = field(default_factory=list)
    _split = None   # cached _KindSplit (a class default, not a field)

    def _kinds(self) -> _KindSplit:
        split = self._split
        if split is None or split.source is not self.events \
                or split.length != len(self.events):
            split = self._split = _KindSplit.of(self.events)
        return split

    def allocations(self) -> List[AllocTraceEvent]:
        return list(self._kinds().allocations)

    def frees(self) -> List[FreeTraceEvent]:
        return list(self._kinds().frees)

    def launches(self) -> List[LaunchTraceEvent]:
        return list(self._kinds().launches)

    def captured_launches(self) -> List[LaunchTraceEvent]:
        return [e for e in self._kinds().launches if e.captured]

    def freed_alloc_indices(self) -> Dict[int, int]:
        """alloc_index -> seq of its free event (pool or cudaFree)."""
        return dict(self._kinds().freed)

    @property
    def num_events(self) -> int:
        return len(self.events)
