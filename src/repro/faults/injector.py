"""The runtime side of fault injection: site hooks + deterministic targets.

A :class:`FaultInjector` wraps one :class:`~repro.faults.plan.FaultPlan`.
``with injecting(fi):`` (:mod:`repro.faultscope`) puts it in scope, and
the two layers a restore crosses that own fault points read it when they
are built — the simulated driver (symbol resolution) and the restorer
(load-time graph corruption, allocation replay, permanent dumps, trigger
launches).
``prepare(artifact)`` resolves every underspecified fault target against the
concrete artifact's packed arrays (a :class:`~repro.core.binfmt.LazyArtifact`)
using the plan's seeded RNG, so the same (plan, artifact) pair always faults
at the same site.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.binfmt import EVENT_NAMES, POINTER_CODE, GraphTable, \
    LazyArtifact, ReplayTable
from repro.errors import InvalidValueError, OutOfMemoryError
from repro.faults.plan import (
    PHASE_KV,
    PHASE_WARMUP,
    FaultKind,
    FaultPlan,
    FaultSpec,
)

#: Offset pushed into a corrupted pointer restore — far outside any
#: simulated allocation, so the restore check (§4.2) must trip.
_CORRUPT_OFFSET = 1 << 40
#: Perturbation applied to a diverged replay event's allocation index.
_DIVERGENCE_SHIFT = 7919
#: Replay-table kind code of an allocation event.
_ALLOC_CODE = 0


def _pick_corruption_site(table: GraphTable) -> Tuple[int, int]:
    """(node index, param index) to corrupt in one graph: its last
    pointer-kind parameter.  That sits past the first-layer prefix
    whenever any pointer does, so the poison stays local to the graph's
    restore tail instead of breaking the shared warm-up.
    """
    slots = np.flatnonzero(table.param_kinds == POINTER_CODE)
    if not slots.size:
        raise InvalidValueError(
            "graph has no pointer-restore parameters to corrupt")
    slot = int(slots[-1])
    node_index = int(np.searchsorted(table.param_offsets, slot,
                                     side="right")) - 1
    return node_index, slot - int(table.param_offsets[node_index])


@dataclass
class _ResolvedFault:
    """A FaultSpec with every target pinned against one artifact."""

    spec: FaultSpec
    batch_size: Optional[int] = None
    event_index: Optional[int] = None
    kernel_name: str = ""
    alloc_index: Optional[int] = None

    @property
    def kind(self) -> FaultKind:
        return self.spec.kind


class FaultInjector:
    """Injects one FaultPlan's faults at their restoration sites."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._resolved: List[_ResolvedFault] = []
        self._prepared = False
        #: (site, description) log of every fault that actually fired.
        self.fired: List[Tuple[str, str]] = []

    @property
    def active(self) -> bool:
        return not self.plan.is_empty

    def record(self, site: str, description: str) -> None:
        self.fired.append((site, description))

    # ------------------------------------------------------------------
    # Target resolution
    # ------------------------------------------------------------------

    def prepare(self, artifact: LazyArtifact) -> None:
        """Pin every fault's target against ``artifact`` (idempotent)."""
        if self._prepared or not self.active:
            self._prepared = True
            return
        self._resolved = [self._resolve(index, spec, artifact)
                          for index, spec in enumerate(self.plan.faults)]
        self._prepared = True

    def _resolve(self, index: int, spec: FaultSpec,
                 artifact: LazyArtifact) -> _ResolvedFault:
        rng = self.plan.rng("fault", index, spec.kind.value)
        resolved = _ResolvedFault(spec=spec)
        if spec.kind is FaultKind.ARTIFACT_CORRUPTION:
            batches = artifact.batches
            resolved.batch_size = spec.batch_size if spec.batch_size in \
                batches else batches[int(rng.integers(len(batches)))]
        elif spec.kind in (FaultKind.REPLAY_DIVERGENCE, FaultKind.REPLAY_OOM):
            resolved.event_index = self._resolve_replay_target(
                spec, artifact, rng)
        elif spec.kind is FaultKind.HIDDEN_KERNEL_UNRESOLVED:
            # Only kernels outside the captured first-layer prefix ever go
            # through dlsym/enumeration — prefix kernels get their address
            # from the captured warm-up graph and would never miss.
            max_graph = artifact.graph_table(max(artifact.batches))
            prefix = set(max_graph.node_kernel_names()
                         [:artifact.first_layer_nodes])
            names = sorted(set(artifact.kernel_name_table()) - prefix) \
                or sorted(artifact.kernel_libraries)
            resolved.kernel_name = spec.kernel_name or \
                names[int(rng.integers(len(names)))]
        elif spec.kind is FaultKind.PERMANENT_DUMP_BITFLIP:
            dumps = sorted(artifact.permanent_contents)
            if spec.alloc_index in dumps:
                resolved.alloc_index = spec.alloc_index
            elif dumps:
                resolved.alloc_index = dumps[int(rng.integers(len(dumps)))]
        elif spec.kind is FaultKind.TRIGGER_TIMEOUT:
            if spec.kernel_name:
                resolved.kernel_name = spec.kernel_name
            else:
                nodes = artifact.graph_table(
                    max(artifact.batches)).node_kernel_names()
                prefix = nodes[:artifact.first_layer_nodes] or nodes
                names = sorted(set(prefix))
                resolved.kernel_name = names[int(rng.integers(len(names)))]
        return resolved

    @staticmethod
    def _resolve_replay_target(spec: FaultSpec, artifact: LazyArtifact,
                               rng) -> Optional[int]:
        replay = artifact.replay_table()
        total = len(replay)
        if spec.event_index is not None:
            return spec.event_index if 0 <= spec.event_index < total \
                else None
        allocs = replay.kind == _ALLOC_CODE
        kv_hits = np.flatnonzero(
            allocs & (replay.alloc_index == artifact.kv_alloc_index))
        kv_pos = int(kv_hits[0]) if kv_hits.size else total - 1
        phase = spec.phase or PHASE_WARMUP
        span = slice(0, kv_pos + 1) if phase == PHASE_KV \
            else slice(kv_pos + 1, total)
        # Both replay faults model cudaMalloc misbehavior (an unexpected
        # return or a failure), so only alloc events are meaningful targets.
        candidates = (np.flatnonzero(allocs[span]) + span.start).tolist()
        if not candidates:
            return kv_pos if phase == PHASE_KV else None
        return candidates[int(rng.integers(len(candidates)))]

    def _faults(self, *kinds: FaultKind) -> List[_ResolvedFault]:
        return [f for f in self._resolved if f.kind in kinds]

    # ------------------------------------------------------------------
    # Site hooks
    # ------------------------------------------------------------------

    def corrupted_tables(self, artifact: LazyArtifact
                         ) -> Dict[int, GraphTable]:
        """Apply ARTIFACT_CORRUPTION faults: batch -> a graph-table copy
        whose ``param_byte_offsets`` has one pointer offset pushed out of
        bounds (``artifact`` itself is never mutated)."""
        self.prepare(artifact)
        tables: Dict[int, GraphTable] = {}
        for fault in self._faults(FaultKind.ARTIFACT_CORRUPTION):
            table = tables.get(fault.batch_size)
            if table is None:
                table = copy.copy(artifact.graph_table(fault.batch_size))
                table.param_byte_offsets = table.param_byte_offsets.copy()
                tables[fault.batch_size] = table
            node_index, param_index = _pick_corruption_site(table)
            slot = int(table.param_offsets[node_index]) + param_index
            table.param_byte_offsets[slot] = _CORRUPT_OFFSET
            self.record("store.load",
                        f"corrupted batch-{fault.batch_size} graph node "
                        f"{node_index} param {param_index} (offset pushed "
                        f"out of bounds)")
        return tables

    def diverged_replay(self, artifact: LazyArtifact
                        ) -> Optional[ReplayTable]:
        """REPLAY_DIVERGENCE: a copy of the replay table whose targeted
        rows record a shifted allocation index (None when no row is
        targeted; ``artifact`` itself is never mutated)."""
        targets = self._replay_targets(FaultKind.REPLAY_DIVERGENCE)
        if not targets:
            return None
        table = artifact.replay_table()
        alloc_index = table.alloc_index.copy()
        alloc_index[targets] += _DIVERGENCE_SHIFT
        return replace(table, alloc_index=alloc_index)

    def replay_oom(self, start: int, stop: int) -> Optional[int]:
        """REPLAY_OOM: the first targeted row in ``[start, stop)``, where
        the replay must stop (:meth:`fail_replay` once it gets there)."""
        targets = [position for position in
                   self._replay_targets(FaultKind.REPLAY_OOM)
                   if start <= position < stop]
        return targets[0] if targets else None

    def replay_reached(self, table: ReplayTable, start: int,
                       end: int) -> None:
        """Record the REPLAY_DIVERGENCE rows among ``[start, end)``, the
        rows a replay reached (``table`` is the artifact's own)."""
        for position in self._replay_targets(FaultKind.REPLAY_DIVERGENCE):
            if start <= position < end:
                kind = EVENT_NAMES[int(table.kind[position])]
                self.record("replay.event",
                            f"diverged replay event {position} "
                            f"({kind} {table.alloc_index[position]})")

    def fail_replay(self, position: int) -> None:
        """The REPLAY_OOM at ``position`` fires: cudaMalloc fails."""
        self.record("replay.event",
                    f"cudaMalloc OOM at replay event {position}")
        raise OutOfMemoryError(
            f"cudaMalloc failed during allocation replay (event "
            f"{position}, fault injection): device memory exhausted")

    def _replay_targets(self, kind: FaultKind) -> List[int]:
        """The rows faults of ``kind`` target, ascending, each once."""
        return sorted({fault.event_index for fault in self._faults(kind)
                       if fault.event_index is not None})

    def symbol_blocked(self, kernel_name: str) -> bool:
        """HIDDEN_KERNEL_UNRESOLVED: neither dlsym nor enumeration may see
        the targeted kernel (its module looks never-loaded)."""
        for fault in self._faults(FaultKind.HIDDEN_KERNEL_UNRESOLVED):
            if fault.kernel_name == kernel_name:
                self.record("driver.resolve",
                            f"blocked symbol resolution of {kernel_name}")
                return True
        return False

    def permanent_payload(self, alloc_index: int,
                          payload: np.ndarray) -> np.ndarray:
        """PERMANENT_DUMP_BITFLIP: flip one element of a restored dump."""
        for fault in self._faults(FaultKind.PERMANENT_DUMP_BITFLIP):
            if fault.alloc_index != alloc_index:
                continue
            flipped = np.array(payload, copy=True)
            rng = self.plan.rng("bitflip", alloc_index)
            flat = flipped.reshape(-1)
            position = int(rng.integers(flat.size))
            flat[position] = -(flat[position] + 1.0)   # guaranteed different
            self.record("restore.permanent",
                        f"flipped element {position} of permanent dump "
                        f"{alloc_index}")
            return flipped
        return payload

    def trigger_times_out(self, kernel_name: str) -> bool:
        """TRIGGER_TIMEOUT: does this trigger launch wedge?  Fires once."""
        for fault in self._faults(FaultKind.TRIGGER_TIMEOUT):
            if fault.kernel_name == kernel_name:
                self.record("warmup.trigger",
                            f"trigger launch of {kernel_name} timed out")
                self._resolved.remove(fault)
                return True
        return False
