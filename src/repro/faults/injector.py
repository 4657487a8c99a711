"""The runtime side of fault injection: site hooks + deterministic targets.

A :class:`FaultInjector` wraps one :class:`~repro.faults.plan.FaultPlan` and
is threaded through the layers a restore actually crosses — the artifact
store (load-time corruption), the simulated driver (symbol resolution), and
the online restorer (allocation replay, permanent dumps, trigger launches).
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

from repro.core.artifact import ReplayEvent
from repro.core.binfmt import POINTER_CODE, GraphTable, LazyArtifact
from repro.core.pointer_analysis import POINTER
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


def _pointer_sites(param_restores) -> List[int]:
    """Indices of POINTER-kind restores in one node's JSON restore list."""
    return [i for i, restore in enumerate(param_restores)
            if restore.get("kind") == POINTER]


def _pick_corruption_site(num_nodes: int, first_layer_nodes: int,
                          pointer_sites) -> Tuple[int, int]:
    """(node index, param index) to corrupt in one graph.

    ``pointer_sites(node_index)`` lists a node's pointer-kind param
    indices.  Prefers a node *after* the first-layer prefix so the poison
    stays local to the graph's restore tail instead of breaking the shared
    warm-up.
    """
    candidates = []
    for node_index in range(num_nodes - 1, -1, -1):
        sites = pointer_sites(node_index)
        if sites:
            candidates.append((node_index, sites[-1]))
            if node_index >= first_layer_nodes:
                return node_index, sites[-1]
    if candidates:
        return candidates[0]
    raise InvalidValueError(
        "graph has no pointer-restore parameters to corrupt")


def corrupt_graph_payload(payload: Dict, batch_size: Optional[int] = None) -> Dict:
    """Apply the canonical ARTIFACT_CORRUPTION mutation to a raw artifact
    JSON payload (the same mutation the injector applies to a loaded
    artifact) — used by the lint-sync tests to show MED011 catches it."""
    graphs = payload["graphs"]
    key = str(batch_size) if batch_size is not None else sorted(graphs)[0]
    nodes = graphs[key]["nodes"]
    node_index, param_index = _pick_corruption_site(
        len(nodes), payload.get("first_layer_nodes", 0),
        lambda index: _pointer_sites(nodes[index]["param_restores"]))
    nodes[node_index]["param_restores"][param_index]["offset"] = _CORRUPT_OFFSET
    return payload


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
            offsets = table.param_offsets
            node_index, param_index = _pick_corruption_site(
                table.num_nodes, artifact.first_layer_nodes,
                lambda index: np.flatnonzero(
                    table.param_kinds[offsets[index]:offsets[index + 1]]
                    == POINTER_CODE).tolist())
            slot = int(offsets[node_index]) + param_index
            table.param_byte_offsets[slot] = _CORRUPT_OFFSET
            self.record("store.load",
                        f"corrupted batch-{fault.batch_size} graph node "
                        f"{node_index} param {param_index} (offset pushed "
                        f"out of bounds)")
        return tables

    def on_replay_event(self, position: int,
                        event: ReplayEvent) -> ReplayEvent:
        """Called per replayed event; may raise OOM or return the event
        with its allocation index shifted (divergence)."""
        for fault in self._faults(FaultKind.REPLAY_OOM):
            if fault.event_index == position:
                self.record("replay.event",
                            f"cudaMalloc OOM at replay event {position}")
                raise OutOfMemoryError(
                    f"cudaMalloc failed during allocation replay (event "
                    f"{position}, fault injection): device memory exhausted")
        for fault in self._faults(FaultKind.REPLAY_DIVERGENCE):
            if fault.event_index == position:
                self.record("replay.event",
                            f"diverged replay event {position} "
                            f"({event.kind} {event.alloc_index})")
                return replace(
                    event,
                    alloc_index=event.alloc_index + _DIVERGENCE_SHIFT)
        return event

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
