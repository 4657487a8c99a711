"""Replay-sequence liveness analysis (static analogue of §4.2 replay).

Invalid replay rows are found as masks over the replay columns, and all of
them are reported in row order (MED001-MED005).  The structure prefix and
the rows that stay are then renumbered (each allocation to its ordinal,
each free to its allocation's) and replayed by the allocator's own array
solver, :func:`repro.simgpu.replay.solve`, so one algorithm decides where
an allocation lands and when it stops being mapped.  The pointer and
coverage passes read the outcome as columns; MED006 checks the anchors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.analysis.diagnostics import Diagnostic
from repro.core.binfmt import LazyArtifact, ReplayTable
from repro.simgpu.memory import ALIGNMENT
from repro.simgpu.replay import solve

#: End states of an allocation after the full replay.
MAPPED = 0        # still owns its memory (or pool-cached)
SUPERSEDED = 1    # pool-freed, block claimed by a later allocation
UNMAPPED = 2      # cudaFree'd or released by empty_cache

_INT64_MAX = np.iinfo(np.int64).max


@dataclass(eq=False)
class LivenessResult:
    """Per allocation index (ascending), the newest allocation holding it."""

    alloc_index: np.ndarray
    size: np.ndarray          # aligned bytes, as the allocator rounds
    end_state: np.ndarray     # MAPPED, SUPERSEDED or UNMAPPED
    freed_row: np.ndarray     # row of its free, -1 if never freed
    pooled_free: np.ndarray   # that free was a pool free
    end_row: np.ndarray       # row where it was unmapped, -1 if not
    tag: np.ndarray
    diagnostics: List[Diagnostic]
    num_events: int
    rows_visited: int = 0     # by a Python loop: once per diagnostic

    def find(self, indices) -> np.ndarray:
        """Each index's position in the columns, -1 where none holds it
        (a padding entry lets a past-the-end position compare)."""
        indices = np.asarray(indices, dtype=np.int64)
        at = np.searchsorted(self.alloc_index, indices)
        return np.where((at < self.alloc_index.size) & (np.append(
            self.alloc_index, 0)[at] == indices), at, -1)


def analyze_replay(artifact: LazyArtifact) -> LivenessResult:
    """Check the replay rows as column masks, then solve the structure
    prefix and the rows that stay in one array solve."""
    table = artifact.replay_table()
    prefix = artifact.structure_prefix
    first = len(prefix)
    diagnostics, holds, free_rows, owners = _check_rows(table, first)
    # The prefix (pool default), then the holding rows, the valid frees
    # and the empty_cache rows: each allocation renumbered to its ordinal
    # and each free to its allocation's.
    keep = holds | (table.kind == 2)
    keep[free_rows] = True
    target = np.zeros(len(table), dtype=np.int64)
    target[holds] = first + np.arange(int(holds.sum()))
    target[free_rows] = owners
    pools = table.pools + ["default"]
    # solve keys a free-list class as pool * span + aligned size in int64;
    # sizes past any device are clamped so that cannot overflow.
    sizes = np.array([entry[0] for entry in prefix], dtype=np.int64)
    head = np.zeros(first, dtype=np.int8)
    rows = ReplayTable(
        np.concatenate([head, table.kind[keep]]),
        np.concatenate([np.arange(first), target[keep]]),
        np.clip(np.concatenate([sizes, table.size[keep]]), 0,
                2 ** 62 // len(pools)),
        np.concatenate([head, table.pooled[keep]]),
        np.concatenate([len(table.tags) + np.arange(first),
                        table.tag_id[keep]]),
        np.concatenate([np.full(first, pools.index("default")),
                        table.pool_id[keep]]),
        table.tags + [tag for _, tag in prefix], pools)
    solution = solve(rows, 0, len(rows), alignment=ALIGNMENT, next_index=0,
                     cursor=0, in_use=0, capacity=_INT64_MAX,
                     index_address=np.zeros(0, dtype=np.int64), live={},
                     free_lists={})
    assert solution.error is None, solution.error

    # Per allocation: unmapped at its cudaFree, or at the first empty_cache
    # after its pool free.  Per index: its newest allocation.
    state = np.where(solution.live, MAPPED,
                     np.where(solution.poisoned, UNMAPPED, SUPERSEDED))
    freed_row = np.full(state.size, -1, dtype=np.int64)
    freed_row[owners] = free_rows
    pooled_free = np.zeros(state.size, dtype=bool)
    pooled_free[owners] = table.pooled[free_rows] != 0
    end_row = np.where(solution.poisoned, freed_row, -1)
    flushed = solution.poisoned & pooled_free
    cache_rows = np.flatnonzero(table.kind == 2)
    end_row[flushed] = cache_rows[np.searchsorted(
        cache_rows, freed_row[flushed], side="right")]
    recorded = np.concatenate([np.arange(first), table.alloc_index[holds]])
    keys, last = np.unique(recorded[::-1], return_index=True)
    newest = state.size - 1 - last
    result = LivenessResult(
        alloc_index=keys, size=solution.sizes[newest],
        end_state=state[newest], freed_row=freed_row[newest],
        pooled_free=pooled_free[newest], end_row=end_row[newest],
        tag=np.array(rows.tags, dtype=object)[
            rows.tag_id[rows.kind == 0][newest]],
        diagnostics=diagnostics, num_events=len(table),
        rows_visited=len(diagnostics))
    _check_anchors(artifact, result)
    return result


def _check_rows(table: ReplayTable, first: int):
    """Every invalid row's diagnostics, in row order; the rows holding an
    allocation; the valid frees and their allocations' ordinals."""
    kind = table.kind
    index = np.asarray(table.alloc_index, dtype=np.int64)
    size = np.asarray(table.size, dtype=np.int64)
    is_alloc, is_free, is_cache = kind == 0, kind == 1, kind == 2
    holds = is_alloc & (size > 0)
    alloc_rows = np.flatnonzero(is_alloc)
    named = index[alloc_rows]
    previous = np.concatenate([[first - 1], named])[:-1]
    drift = (previous == _INT64_MAX) | (named != previous + 1)

    # A free names the newest holder of its index before it: sorted
    # stably by index, the events (prefix entries, then the holding and
    # free rows) put it after that holder, so a forward fill finds it.
    events = np.flatnonzero(holds | is_free)
    is_holder = np.concatenate([np.ones(first, dtype=bool), holds[events]])
    ordinal = np.cumsum(is_holder) - 1
    event_index = np.concatenate([np.arange(first), index[events]])
    order = np.argsort(event_index, kind="stable")
    event_row = np.concatenate([np.full(first, -1), events])[order]
    position = np.arange(order.size)
    latest = np.maximum.accumulate(np.where(is_holder[order], position, -1))
    run = event_index[order]
    held = (latest >= 0) & (run[latest] == run)
    is_free_event = ~is_holder[order]
    valid = is_free_event & held & (latest == position - 1)
    again = is_free_event & held & ~valid

    flagged = [(row, 0, "MED001", f"alloc index {arrived} arrived where "
                f"the sequence expects {expected + 1}; online replay would "
                f"abort with replay drift")
               for row, arrived, expected in zip(alloc_rows[drift].tolist(),
                                                 named[drift].tolist(),
                                                 previous[drift].tolist())]
    flagged += [(row, 1, "MED004", f"allocation of size {size[row]}")
                for row in np.flatnonzero(is_alloc & ~holds).tolist()]
    flagged += [(row, 0, "MED005", f"replay event kind code {kind[row]}")
                for row in np.flatnonzero(
                    ~(is_alloc | is_free | is_cache)).tolist()]
    flagged += [(row, 0, "MED002", f"free of allocation index "
                 f"{index[row]}, which no prior alloc or structure-prefix "
                 f"entry produced")
                for row in event_row[is_free_event & ~held].tolist()]
    flagged += [(row, 0, "MED003", f"allocation {index[row]} freed again "
                 f"(first free at replay[{first_free}])")
                for row, first_free in zip(event_row[again].tolist(),
                                           event_row[latest[again] + 1]
                                           .tolist())]
    flagged.sort()
    return ([Diagnostic(code, message, f"replay[{row}]")
             for row, _, code, message in flagged],
            holds, event_row[valid], ordinal[order][latest[valid]])


def _check_anchors(artifact: LazyArtifact, result: LivenessResult) -> None:
    """The artifact's designated allocations must exist with the right tag."""
    for name, expected_tag in (("kv_alloc_index", "kv"),
                               ("graph_input_alloc_index", "graph_input"),
                               ("graph_output_alloc_index", "graph_output")):
        alloc_index = getattr(artifact, name)
        at = int(result.find(alloc_index))
        if alloc_index < 0 or at < 0:
            message = (f"{name} is {alloc_index}, which names no "
                       f"allocation in the replayed sequence")
        elif result.tag[at] != expected_tag:
            message = (f"{name} points at allocation {alloc_index} tagged "
                       f"{result.tag[at]!r}, expected {expected_tag!r}")
        else:
            continue
        result.diagnostics.append(Diagnostic("MED006", message, name))
