"""Replay-sequence liveness analysis (static analogue of §4.2 replay).

Simulates the artifact's recorded (de)allocation event sequence *symbolically*
— no device memory, no addresses — mirroring the semantics of
:class:`repro.simgpu.memory.DeviceAllocator`:

- allocations claim the most recently freed block of the same
  ``(pool, aligned size)`` bucket (LIFO reuse), superseding a pool-freed
  previous owner while keeping the memory mapped;
- ``cudaFree`` unmaps immediately; a pool free keeps the block mapped until
  a later allocation claims it or ``empty_cache`` releases it.

The result is a per-allocation table of live intervals and end states that
the pointer pass consumes, plus diagnostics for malformed sequences:
double frees (MED003), frees of unknown indices (MED002), index drift that
would break online replay's ``alloc_index`` check (MED001), and mis-tagged
anchor allocations such as the KV region (MED006).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.diagnostics import Diagnostic
from repro.core.binfmt import LazyArtifact

_ALIGNMENT = 256

#: End states of an allocation after the full replay.
MAPPED = "mapped"            # still owns its memory (or pool-cached)
SUPERSEDED = "superseded"    # pool-freed, block claimed by a later allocation
UNMAPPED = "unmapped"        # cudaFree'd or released by empty_cache


def _align(size: int) -> int:
    return (size + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT


@dataclass
class AllocationRecord:
    """Symbolic lifetime of one allocation index."""

    alloc_index: int
    size: int                 # aligned bytes, as the allocator would round
    tag: str
    pool: str
    origin: str               # "prefix" (structure init) or "replay"
    born: int = -1            # replay event position (-1: structure prefix)
    freed: Optional[int] = None       # position of its free event, if any
    pooled_free: bool = False
    end_state: str = MAPPED
    end_position: Optional[int] = None  # position where it left MAPPED

    @property
    def live_interval(self) -> Tuple[int, Optional[int]]:
        """(birth position, unmap/supersede position or None if mapped)."""
        return self.born, self.end_position


@dataclass
class LivenessResult:
    """Outcome of the symbolic replay."""

    records: Dict[int, AllocationRecord] = field(default_factory=dict)
    diagnostics: List[Diagnostic] = field(default_factory=list)
    num_events: int = 0

    def record(self, alloc_index: int) -> Optional[AllocationRecord]:
        return self.records.get(alloc_index)


def analyze_replay(artifact: LazyArtifact) -> LivenessResult:
    """Symbolically execute the structure prefix plus replay suffix, one
    position of the packed replay columns at a time."""
    table = artifact.replay_table()
    tags, pools = table.tags, table.pools
    result = LivenessResult(num_events=len(table))
    records = result.records
    diagnostics = result.diagnostics

    for position, (size, tag) in enumerate(artifact.structure_prefix):
        records[position] = AllocationRecord(
            alloc_index=position, size=_align(size), tag=tag,
            pool="default", origin="prefix")

    # (pool, aligned size) -> [(alloc_index, pooled)] — the symbolic free
    # lists; LIFO, exactly like DeviceAllocator.
    free_lists: Dict[Tuple[str, int], List[Tuple[int, int]]] = {}
    counter = len(artifact.structure_prefix)

    # Diagnostic locations are formatted only when a diagnostic fires.
    for position, (kind, alloc_index, size, pooled, tag_id, pool_id) in \
            enumerate(zip(table.kind.tolist(), table.alloc_index.tolist(),
                          table.size.tolist(), table.pooled.tolist(),
                          table.tag_id.tolist(), table.pool_id.tolist())):
        if kind == 0:           # alloc
            if alloc_index != counter:
                diagnostics.append(Diagnostic(
                    "MED001",
                    f"alloc index {alloc_index} arrived where the "
                    f"sequence expects {counter}; online replay would abort "
                    f"with replay drift", _where(position)))
            counter = alloc_index + 1
            if size <= 0:
                diagnostics.append(Diagnostic(
                    "MED004", f"allocation of size {size}",
                    _where(position)))
                continue
            aligned = _align(size)
            pool = pools[pool_id]
            bucket = free_lists.get((pool, aligned))
            if bucket:
                previous_index, previous_pooled = bucket.pop()
                if previous_pooled:
                    previous = records[previous_index]
                    previous.end_state = SUPERSEDED
                    previous.end_position = position
            # After drift (already flagged) the newest record wins.
            records[alloc_index] = AllocationRecord(
                alloc_index=alloc_index, size=aligned, tag=tags[tag_id],
                pool=pool, origin="replay", born=position)
        elif kind == 1:         # free
            record = records.get(alloc_index)
            if record is None:
                diagnostics.append(Diagnostic(
                    "MED002",
                    f"free of allocation index {alloc_index}, which "
                    f"no prior alloc or structure-prefix entry produced",
                    _where(position)))
                continue
            if record.freed is not None:
                diagnostics.append(Diagnostic(
                    "MED003",
                    f"allocation {alloc_index} freed again "
                    f"(first free at {_where(record.freed)})",
                    _where(position)))
                continue
            record.freed = position
            record.pooled_free = bool(pooled)
            if not pooled:
                record.end_state = UNMAPPED
                record.end_position = position
            free_lists.setdefault((record.pool, record.size), []).append(
                (alloc_index, pooled))
        elif kind == 2:         # empty_cache
            # torch.cuda.empty_cache(): every pool-cached block is released.
            for bucket in free_lists.values():
                for cached_index, cached_pooled in bucket:
                    if cached_pooled:
                        record = records[cached_index]
                        record.end_state = UNMAPPED
                        record.end_position = position
            free_lists.clear()
        else:
            diagnostics.append(Diagnostic(
                "MED005", f"replay event kind code {kind}",
                _where(position)))

    _check_anchors(artifact, result)
    return result


def _where(position: int) -> str:
    return f"replay[{position}]"


def _check_anchors(artifact: LazyArtifact, result: LivenessResult) -> None:
    """The artifact's designated allocations must exist with the right tag."""
    anchors = (
        ("kv_alloc_index", artifact.kv_alloc_index, "kv"),
        ("graph_input_alloc_index", artifact.graph_input_alloc_index,
         "graph_input"),
        ("graph_output_alloc_index", artifact.graph_output_alloc_index,
         "graph_output"),
    )
    for name, alloc_index, expected_tag in anchors:
        record = result.records.get(alloc_index)
        if alloc_index < 0 or record is None:
            result.diagnostics.append(Diagnostic(
                "MED006",
                f"{name} is {alloc_index}, which names no allocation in "
                f"the replayed sequence", name))
        elif record.tag != expected_tag:
            result.diagnostics.append(Diagnostic(
                "MED006",
                f"{name} points at allocation {alloc_index} tagged "
                f"{record.tag!r}, expected {expected_tag!r}", name))
