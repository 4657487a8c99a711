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
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import PointerAnalysisError
from repro.core.trace import LaunchTraceEvent, Trace

#: Values at or above this look like device-heap pointers.  The simulated
#: heap lives at 0x7F00_0000_0000+, libraries at 0x5500_0000_0000+; plain
#: integer constants are far below.
POINTER_PREFIX = 0x5000_0000_0000

#: Give up interval-walking after this many bases (junk queries only).
_MAX_WALK = 4096

CONST = "const"
POINTER = "ptr"


@dataclass(frozen=True)
class ParamRestore:
    """Materialized restoration rule for one node parameter."""

    kind: str                     # CONST or POINTER
    value: int = 0                # CONST: the plain value to restore
    alloc_index: int = -1         # POINTER: index in the allocation sequence
    offset: int = 0               # POINTER: byte offset inside that buffer

    @staticmethod
    def const(value: int) -> "ParamRestore":
        return ParamRestore(kind=CONST, value=value)

    @staticmethod
    def pointer(alloc_index: int, offset: int) -> "ParamRestore":
        return ParamRestore(kind=POINTER, alloc_index=alloc_index, offset=offset)


def is_pointer_like(size: int, value: int) -> bool:
    """The paper's heuristic: 8 bytes long with a high address prefix."""
    return size == 8 and value >= POINTER_PREFIX


class AllocationIndex:
    """Search structure over the intercepted allocation sequence.

    Built for two query shapes: *exact* (the parameter equals a returned
    address — the overwhelming majority) and *interior* (the parameter lands
    inside a buffer, e.g. per-layer KV pointers).  At any instant live
    allocations never overlap, so "the most recent allocation before the
    launch containing the address" is exactly "the allocation live at launch
    time containing the address" — unique, which lets both paths stop at the
    first liveness-checked hit.
    """

    def __init__(self, trace: Trace):
        # address -> [(seq, alloc_index, size, free_seq, end)] ascending by
        # seq; ``end`` = base + size, precomputed once so the lookup loops
        # compare against a stored bound instead of re-deriving it per entry.
        by_address: Dict[int, List[Tuple[int, int, int, float, int]]] = {}
        self._by_address = by_address
        freed = trace.freed_alloc_indices()
        never = float("inf")
        for seq, alloc_index, address, size, _tag, _pool in \
                trace.allocations():
            entry = (seq, alloc_index, size, freed.get(alloc_index, never),
                     address + size)
            entries = by_address.get(address)
            if entries is None:
                by_address[address] = [entry]
            else:
                entries.append(entry)
        self._bases = sorted(by_address)
        # prefix_reach[i] = max end address over bases[0..i] — a monotone
        # bound that tells the interior walk when no further base can cover
        # the queried address.
        self._prefix_reach: List[int] = []
        reach = 0
        for base in self._bases:
            end = max(entry[4] for entry in by_address[base])
            reach = max(reach, end)
            self._prefix_reach.append(reach)
        # The restore rules of this index's analysis run, interned: one
        # ParamRestore per distinct const value and per (alloc_index,
        # offset).  Most parameters repeat across layers and batch sizes,
        # and the rules are immutable, so nodes share them.  The tables
        # live and die with the index, never across runs.
        self._const_rules: Dict[int, ParamRestore] = {}
        self._pointer_rules: Dict[Tuple[int, int], ParamRestore] = {}
        #: Entries backward_match inspected: its deterministic lookup cost.
        self.visits = 0

    # -- trace-based backward matching (§4.1) -------------------------------

    def backward_match(self, address: int,
                       before_seq: int) -> Optional[Tuple[int, int]]:
        """The most recent allocation before ``before_seq`` containing
        ``address``; returns (alloc_index, offset) or None."""
        visited = 0
        # Exact fast path: newest allocation of this very address that was
        # live at launch time.
        entries = self._by_address.get(address)
        if entries is not None:
            for seq, alloc_index, _size, free_seq, _end in reversed(entries):
                visited += 1
                if seq < before_seq and free_seq >= before_seq:
                    self.visits += visited
                    return alloc_index, 0
        # Interior path: walk bases leftward; the first allocation live at
        # launch time containing the address is the unique answer.
        position = bisect.bisect_right(self._bases, address) - 1
        walked = 0
        while position >= 0 and walked < _MAX_WALK:
            if self._prefix_reach[position] <= address:
                break
            base = self._bases[position]
            for seq, alloc_index, _size, free_seq, end in reversed(
                    self._by_address[base]):
                visited += 1
                if (seq < before_seq and free_seq >= before_seq
                        and base <= address < end):
                    self.visits += visited
                    return alloc_index, address - base
            position -= 1
            walked += 1
        self.visits += visited
        return None

    # -- the naive strategy of Figure 6 (ablation baseline) -------------------

    def naive_match(self, address: int) -> Optional[Tuple[int, int]]:
        """First allocation *ever* containing the address (earliest seq).

        This is the strawman matching whose false positives Figure 6
        illustrates: with pool reuse, the earliest match may be a long-freed
        allocation, restoring the pointer to the wrong buffer online.
        """
        best: Optional[Tuple[int, int, int]] = None
        entries = self._by_address.get(address)
        if entries is not None:
            seq, alloc_index, _size, _free, _end = entries[0]
            best = (seq, alloc_index, 0)
        position = bisect.bisect_right(self._bases, address) - 1
        walked = 0
        while position >= 0 and walked < _MAX_WALK:
            if self._prefix_reach[position] <= address:
                break
            base = self._bases[position]
            for seq, alloc_index, _size, _free, end in self._by_address[base]:
                if base <= address < end:
                    if best is None or seq < best[0]:
                        best = (seq, alloc_index, address - base)
                    break   # entries ascend by seq; later ones cannot beat it
            position -= 1
            walked += 1
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
        node_launches: Sequence[LaunchTraceEvent],
        naive: bool = False,
) -> Tuple[List[List[ParamRestore]], AnalysisStats]:
    """Materialize restoration rules for every node of one captured graph.

    ``node_launches`` are the captured-launch trace events of the graph, in
    node order; each carries the launch sequence number bounding the
    backward search.  ``naive=True`` switches to forward-first matching (the
    ablation baseline), still applying the pointer-likeness heuristic.
    Equal rules are one shared, immutable :class:`ParamRestore`, interned in
    ``index`` (so across all graphs of one analysis run).
    """
    const_params = pointer_params = interior = demoted_count = 0
    per_node: List[List[ParamRestore]] = []
    demoted = _demoted_positions(node_launches)
    const_rules = index._const_rules
    pointer_rules = index._pointer_rules
    for launch in node_launches:
        kernel_name = launch.kernel_name
        restores: List[ParamRestore] = []
        append = restores.append
        for position, (size, value) in enumerate(
                zip(launch.param_sizes, launch.param_values)):
            # is_pointer_like, inlined: this loop runs once per parameter.
            if size != 8 or value < POINTER_PREFIX:
                const_params += 1
            elif demoted and (kernel_name, position) in demoted:
                # Positional majority vote: this slot is a constant in most
                # instances of this kernel — a false-positive address-shaped
                # constant (§4: "rare... validates and corrects").
                demoted_count += 1
            else:
                if naive:
                    match = index.naive_match(value)
                else:
                    match = index.backward_match(value, launch.seq)
                if match is None:
                    raise PointerAnalysisError(
                        f"kernel {kernel_name} param {position}: pointer "
                        f"0x{value:x} matches no intercepted allocation")
                if match[1]:
                    interior += 1
                pointer_params += 1
                rule = pointer_rules.get(match)
                if rule is None:
                    rule = pointer_rules[match] = ParamRestore.pointer(*match)
                append(rule)
                continue
            rule = const_rules.get(value)
            if rule is None:
                rule = const_rules[value] = ParamRestore.const(value)
            append(rule)
        per_node.append(restores)
    stats = AnalysisStats(pointer_params=pointer_params,
                          const_params=const_params,
                          interior_pointers=interior,
                          demoted_false_positives=demoted_count)
    return per_node, stats


def _demoted_positions(
        launches: Sequence[LaunchTraceEvent]) -> Set[Tuple[str, int]]:
    """(kernel, position) slots whose 8-byte values are pointer-like in at
    most half of the kernel's instances: the positional vote's constants."""
    votes: Dict[Tuple[str, int], List[int]] = {}
    for launch in launches:
        kernel_name = launch.kernel_name
        for position, (size, value) in enumerate(
                zip(launch.param_sizes, launch.param_values)):
            if size != 8:
                continue
            tally = votes.get((kernel_name, position))
            if tally is None:
                tally = votes[(kernel_name, position)] = [0, 0]
            if value >= POINTER_PREFIX:
                tally[0] += 1
            tally[1] += 1
    return {key for key, (pointers, total) in votes.items()
            if pointers * 2 <= total}
