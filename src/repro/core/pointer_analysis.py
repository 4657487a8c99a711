"""Indirect index pointer analysis (paper §4).

Kernel parameters inside a raw CUDA graph node are just (size, value) pairs.
This module turns every 8-byte, heap-prefixed value into an *indirect index
pointer* — (allocation index, offset within that allocation) — by matching
it against the intercepted allocation sequence, **backwards from the
parameter's own cudaLaunchKernel event** (trace-based matching, §4.1).
Backward matching is what defeats the Figure 6 false positive: when an
address was returned by several allocations (LIFO pool reuse), the kernel
always used the most recent one still live at launch time, i.e. the first
match scanning backwards.

Two extra concerns from the paper are handled here:

- *interior pointers*: a parameter may point inside a buffer (the per-layer
  KV pointers do); matches accept any allocation whose range contains the
  address, and the offset is preserved ("within the range of the allocated
  buffer", §4.1);
- *false-positive pointer-like constants*: an 8-byte constant can
  accidentally carry a heap-prefixed value.  Instances of the same kernel
  recur across layers and batch sizes with identical parameter layouts, so a
  positional majority vote demotes the rare pointer-like instance of a
  mostly-constant position back to a constant; output validation (§4,
  :mod:`repro.core.validation`) remains the final guard.

The analysis runs on the trace's columns.  Per graph, one vector pass
settles every parameter equal to an allocation's base whose latest
allocation before the launch is still live then; only the rest (interior
pointers, mostly) go through the per-query :meth:`AllocationIndex.
backward_match`, the same search over the same sorted columns.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import PointerAnalysisError
from repro.core.trace import LaunchColumns, Trace

#: Values at or above this look like device-heap pointers.  The simulated
#: heap lives at 0x7F00_0000_0000+, libraries at 0x5500_0000_0000+; plain
#: integer constants are far below.
POINTER_PREFIX = 0x5000_0000_0000

#: Give up interval-walking after this many bases (junk queries only).
_MAX_WALK = 4096

#: The kinds' codes in :class:`ParamColumns` and on disk.
CONST_CODE, POINTER_CODE = 0, 1

#: The free seq of an allocation never freed.
_NEVER = np.iinfo(np.int64).max


class ParamColumns(NamedTuple):
    """One graph's restoration rules, one entry per parameter slot.

    ``kind`` is :data:`CONST_CODE` or :data:`POINTER_CODE`; a pointer's
    ``value`` is its allocation index and ``offset`` its byte offset in
    that buffer, a constant's ``value`` the plain value (offset 0).
    """
    kind: np.ndarray      # int8
    value: np.ndarray     # int64 (object if a constant does not fit)
    offset: np.ndarray    # int64


def is_pointer_like(size: int, value: int) -> bool:
    """The paper's heuristic: 8 bytes long with a high address prefix."""
    return size == 8 and value >= POINTER_PREFIX


class AllocationIndex:
    """Search structure over the intercepted allocation sequence.

    The allocations are sorted once by (address, seq) into columns:
    address, seq, alloc index, free seq (of the last free) and end.  Two
    query shapes read them: *exact* (the parameter equals a returned
    address — the overwhelming majority, settled in bulk by
    :meth:`exact_matches`) and *interior* (the parameter lands inside a
    buffer, e.g. per-layer KV pointers).  At any instant live allocations
    never overlap, so "the most recent allocation before the launch
    containing the address" is exactly "the allocation live at launch time
    containing the address" — unique, which lets both paths stop at the
    first liveness-checked hit.
    """

    def __init__(self, trace: Trace):
        allocs = trace.alloc_columns()
        frees = trace.free_columns()
        # The seq of each allocation's last free: ``freed`` lists the freed
        # indices, ``where`` each allocation's position in it, or
        # len(freed) (the appended _NEVER) for one never freed.
        freed, last = np.unique(frees.alloc_index[::-1], return_index=True)
        free_seq = np.append(frees.seq[::-1][last], _NEVER)
        where = np.searchsorted(freed, allocs.alloc_index)
        where[np.append(freed, -1)[where] != allocs.alloc_index] = len(freed)
        order = np.lexsort((allocs.seq, allocs.address))
        self._seq = allocs.seq[order]
        self._alloc_index = allocs.alloc_index[order]
        self._free_seq = free_seq[where][order]
        self._end = (allocs.address + allocs.size)[order]
        self._bases, starts = np.unique(allocs.address[order],
                                        return_index=True)
        self._starts = np.append(starts, len(order))
        self._rank = np.repeat(np.arange(len(starts)), np.diff(self._starts))
        # (base rank, seq) as one ascending int64 key: the exact pass's
        # latest allocation of a base before a seq is one searchsorted.
        self._stride = int(self._seq.max(initial=0)) + 2
        self._keys = self._rank * self._stride + self._seq
        # reach[i] = max end address over bases[0..i] — a monotone bound
        # that tells the interior walk when no further base can cover the
        # queried address.
        self._reach = np.maximum.accumulate(np.maximum.reduceat(
            self._end, starts)) if len(starts) else starts
        self._lists: Optional[tuple] = None
        #: Entries backward_match inspected: its deterministic lookup cost.
        self.visits = 0
        #: Queries the per-query matchers (backward and naive) answered.
        self.queries = 0

    def exact_matches(self, addresses: np.ndarray,
                      before_seqs: np.ndarray) -> Tuple[np.ndarray,
                                                        np.ndarray]:
        """The vector pass: ``(settled, alloc_index)`` per query.

        A query is settled when an allocation at exactly ``address``
        precedes ``before_seq`` and the latest such is still live then;
        its answer is then :meth:`backward_match`'s, ``(alloc_index, 0)``.
        """
        if not len(self._bases):
            unsettled = np.zeros(len(addresses), dtype=bool)
            return unsettled, unsettled.astype(np.int64)
        rank = np.minimum(np.searchsorted(self._bases, addresses),
                          len(self._bases) - 1)
        entry = np.searchsorted(self._keys, rank * self._stride + np.minimum(
            before_seqs, self._stride - 1)) - 1
        settled = np.asarray(self._bases[rank] == addresses, dtype=bool)
        settled &= entry >= 0
        entry[~settled] = 0
        settled &= (self._rank[entry] == rank) \
            & (self._free_seq[entry] >= before_seqs)
        return settled, self._alloc_index[entry]

    def _columns(self) -> tuple:
        """The sorted columns as lists, for the per-query matchers."""
        if self._lists is None:
            self._lists = tuple(column.tolist() for column in (
                self._bases, self._starts, self._seq, self._alloc_index,
                self._free_seq, self._end, self._reach))
        return self._lists

    # -- trace-based backward matching (§4.1) -------------------------------

    def backward_match(self, address: int,
                       before_seq: int) -> Optional[Tuple[int, int]]:
        """The most recent allocation before ``before_seq`` containing
        ``address``; returns (alloc_index, offset) or None."""
        bases, starts, seqs, indices, frees, ends, _reach = self._columns()
        self.queries += 1
        visited = 0
        position = bisect.bisect_right(bases, address) - 1
        # Exact path: newest allocation of this very address that was
        # live at launch time.
        if position >= 0 and bases[position] == address:
            for entry in range(starts[position + 1] - 1,
                               starts[position] - 1, -1):
                visited += 1
                if seqs[entry] < before_seq <= frees[entry]:
                    self.visits += visited
                    return indices[entry], 0
        # Interior path: the first allocation live at launch time
        # containing the address is the unique answer.
        for position in self._walk(address):
            for entry in range(starts[position + 1] - 1,
                               starts[position] - 1, -1):
                visited += 1
                if seqs[entry] < before_seq <= frees[entry] \
                        and address < ends[entry]:
                    self.visits += visited
                    return indices[entry], address - bases[position]
        self.visits += visited
        return None

    def _walk(self, address: int):
        """Positions of the bases at or below ``address`` whose buffers
        may still cover it, nearest first (at most ``_MAX_WALK``)."""
        bases, *_, reach = self._columns()
        position = bisect.bisect_right(bases, address) - 1
        for _ in range(_MAX_WALK):
            if position < 0 or reach[position] <= address:
                return
            yield position
            position -= 1

    # -- the naive strategy of Figure 6 (ablation baseline) -------------------

    def naive_match(self, address: int) -> Optional[Tuple[int, int]]:
        """First allocation *ever* containing the address (earliest seq).

        This is the strawman matching whose false positives Figure 6
        illustrates: with pool reuse, the earliest match may be a long-freed
        allocation, restoring the pointer to the wrong buffer online.
        """
        bases, starts, seqs, indices, _frees, ends, _reach = self._columns()
        self.queries += 1
        best: Optional[Tuple[int, int, int]] = None
        position = bisect.bisect_right(bases, address) - 1
        if position >= 0 and bases[position] == address:
            entry = starts[position]
            best = (seqs[entry], indices[entry], 0)
        for position in self._walk(address):
            for entry in range(starts[position], starts[position + 1]):
                if address < ends[entry]:
                    if best is None or seqs[entry] < best[0]:
                        best = (seqs[entry], indices[entry],
                                address - bases[position])
                    break   # entries ascend by seq; later ones cannot beat it
        if best is None:
            return None
        return best[1], best[2]


@dataclass
class AnalysisStats:
    pointer_params: int = 0
    const_params: int = 0
    interior_pointers: int = 0
    demoted_false_positives: int = 0


def analyze_graph_params(
        index: AllocationIndex,
        launches: LaunchColumns,
        naive: bool = False,
) -> Tuple[ParamColumns, AnalysisStats]:
    """Materialize restoration rules for every node of one captured graph.

    ``launches`` are the graph's captured launches, in node order; each
    launch's seq bounds the backward search of its parameters.
    ``naive=True`` switches to forward-first matching (the ablation
    baseline) for every query, still applying the pointer-likeness
    heuristic and the vote.
    """
    sizes, values, counts = launches.sizes, launches.values, launches.count
    node = np.repeat(np.arange(len(counts)), counts)
    position = np.arange(len(sizes)) - (np.cumsum(counts) - counts)[node]
    word = sizes == 8
    pointer_like = word & np.asarray(values >= POINTER_PREFIX, dtype=bool)
    # Positional majority vote: a (kernel, position) slot whose 8-byte
    # values are pointer-like in at most half of the kernel's instances is
    # a constant; its rare pointer-like values are false-positive
    # address-shaped constants (§4: "rare... validates and corrects").
    slot_key = launches.kernel[node] * (int(position.max(initial=0)) + 1) \
        + position
    vote = np.unique(slot_key[word], return_inverse=True)[1]
    constant = np.zeros(len(sizes), dtype=bool)
    constant[word] = (2 * np.bincount(vote, weights=pointer_like[word])
                      <= np.bincount(vote))[vote]
    demoted = pointer_like & constant
    query = np.flatnonzero(pointer_like & ~constant)
    kind = np.zeros(len(sizes), dtype=np.int8)
    kind[query] = POINTER_CODE
    value = values.copy()
    offset = np.zeros(len(sizes), dtype=np.int64)
    unsettled = query
    if not naive:
        settled, alloc_index = index.exact_matches(
            values[query], launches.seq[node[query]])
        value[query[settled]] = alloc_index[settled]
        unsettled = query[~settled]
    for slot, address, seq in zip(unsettled.tolist(),
                                  values[unsettled].tolist(),
                                  launches.seq[node[unsettled]].tolist()):
        match = index.naive_match(address) if naive \
            else index.backward_match(address, seq)
        if match is None:
            name = launches.kernels[launches.kernel[node[slot]]][0]
            raise PointerAnalysisError(
                f"kernel {name} param {position[slot]}: pointer "
                f"0x{address:x} matches no intercepted allocation")
        value[slot], offset[slot] = match
    stats = AnalysisStats(
        pointer_params=len(query),
        const_params=len(sizes) - int(np.count_nonzero(pointer_like)),
        interior_pointers=int(np.count_nonzero(offset)),
        demoted_false_positives=int(np.count_nonzero(demoted)))
    return ParamColumns(kind, value, offset), stats
