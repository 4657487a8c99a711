"""Locality-aware artifact placement over per-node cache hierarchies.

Medusa's restoration speedup (§4-§6) assumes the materialized artifact is
already *local* to the node that cold-starts; on a real cluster that is a
placement decision, not a given.  ServerlessLLM makes the same point for
checkpoints: startup time is dominated by where the bytes sit in the
GPU / DRAM / SSD / remote hierarchy, so the scheduler should route a cold
start to the node holding them in the warmest tier.  This module supplies
that layer for the cluster simulators:

- :class:`TierSpec` describes one storage tier: a capacity (in artifact
  size units) and a ``fetch_scale`` multiplier applied to the plan's
  baseline (remote) ``fetch_artifact`` duration.  ``DEFAULT_TIERS`` is
  every node's ladder: GPU-resident / DRAM / local-SSD / remote store,
  warmest first.
- :class:`NodeCache` is one node's tiered artifact cache: LRU within each
  tier, cascading demotion on eviction (DRAM spills to SSD, SSD spills out
  of the hierarchy), promotion one tier warmer on every hit, and an append
  -only event log (:class:`CacheEvent`) the property tests and the trace
  exporter consume.
- :class:`PlacementPolicy` and its implementations decide *which node* a
  cold start lands on and *what the artifact fetch costs there*:

  ``flat``
      The pre-placement behaviour: first free node, every fetch at the
      remote baseline, no cache bookkeeping.  Bit-identical to the
      simulators before this layer existed (the golden pin).
  ``locality``
      Routes to the free node holding the artifact in the warmest tier,
      falling back to the least-loaded free node; the resolved tier
      rewrites the ``fetch_artifact`` stage of the cold start's LoadPlan
      timeline (ServerlessLLM-style locality-driven startup scheduling).
  ``affinity``
      ``locality`` plus a residency memory: when no free node still
      *holds* the artifact, prefer a node that ever hosted it (its weights
      are likely a short re-fetch away) before falling back to
      least-loaded — the Tangram-style affinity reuse of prior state.

Everything here is deterministic: ties break on node id, the caches use
insertion-ordered LRU, and no randomness is consulted, so a fixed seed
reproduces placements exactly.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import InvalidValueError

#: Canonical tier names, warmest to coldest.
TIER_GPU = "gpu"
TIER_DRAM = "dram"
TIER_SSD = "ssd"
TIER_REMOTE = "remote"


@dataclass(frozen=True)
class TierSpec:
    """One storage tier of a node's artifact cache hierarchy.

    ``capacity`` is in artifact-size units (``math.inf`` for the unbounded
    remote backstop); ``fetch_scale`` multiplies the plan's baseline
    remote ``fetch_artifact`` duration when the artifact is served from
    this tier — 0.0 for GPU-resident (nothing to move), 1.0 for remote.
    """

    name: str
    capacity: float
    fetch_scale: float


#: Every node's GPU / DRAM / SSD / remote ladder, warmest first.  The
#: last tier is the remote backstop: unbounded, scale 1.0 (the flat-store
#: baseline).
DEFAULT_TIERS: Tuple[TierSpec, ...] = (
    TierSpec(TIER_GPU, capacity=1.0, fetch_scale=0.0),
    TierSpec(TIER_DRAM, capacity=2.0, fetch_scale=0.05),
    TierSpec(TIER_SSD, capacity=8.0, fetch_scale=0.35),
    TierSpec(TIER_REMOTE, capacity=math.inf, fetch_scale=1.0),
)


def fetch_duration(tier_name: str, base: float) -> float:
    """The fetch time from ``tier_name`` given the remote baseline."""
    for tier in DEFAULT_TIERS:
        if tier.name == tier_name:
            return base * tier.fetch_scale
    raise InvalidValueError(f"unknown tier {tier_name!r}")


@dataclass(frozen=True)
class CacheEvent:
    """One entry of a node cache's append-only event log."""

    seq: int
    kind: str        # "admit" | "hit" | "promote" | "demote" | "evict"
    key: Tuple
    tier: str        # the tier the event happened in / moved the key to


@dataclass(frozen=True)
class ChunkFetchSummary:
    """Aggregate outcome of resolving one chunk-streamed fetch on a node.

    Produced when a cold start's artifact arrives as a content-addressed
    chunk stream (:mod:`repro.core.chunks`) instead of one blob: each
    chunk resolves against the node's chunk-level residency, so a node
    that hosted a *sibling* model sharing chunks starts partially warm.
    """

    chunks: int                  # chunks in the manifest stream
    hits: int                    # chunks already resident on the node
    bytes_deduped: float         # bytes of resident chunks not re-fetched
    foreground_bytes: float      # bytes actually fetched before readiness
    foreground_seconds: float    # tier-resolved foreground fetch seconds


@dataclass(frozen=True)
class FetchResolution:
    """Outcome of resolving one cold start's artifact fetch on a node."""

    node_id: int
    tier: str                 # tier the artifact is served from
    hit: bool                 # resident warmer than the remote backstop
    base_duration: float      # the plan's remote fetch_artifact seconds
    duration: float           # tier-resolved seconds actually charged
    #: ``(key, tier)`` pairs pushed out of the hierarchy entirely.
    evicted: Tuple[Tuple[Tuple, str], ...] = ()
    #: ``(from_tier, to_tier)`` when the fetched artifact moved warmer.
    promoted: Optional[Tuple[str, str]] = None
    #: Per-chunk accounting when the fetch was chunk-streamed; None for
    #: blob-granular fetches (and under the flat policy).
    chunks: Optional[ChunkFetchSummary] = None

    @property
    def seconds_saved(self) -> float:
        return max(0.0, self.base_duration - self.duration)


class NodeCache:
    """One node's tiered artifact cache: LRU per tier, demotion cascade.

    An artifact is resident in at most one cache tier (the remote
    backstop is implicit and holds everything).  Admissions land in the
    tier requested; overflow demotes the tier's LRU victim one tier
    colder, cascading until the hierarchy's coldest cache tier spills the
    victim out entirely.  Hits refresh LRU order and promote the artifact
    one tier warmer — repeated cold starts on a node walk its artifact up
    the ladder toward GPU residency.
    """

    #: The ladder, warmest first; the last tier is the remote backstop.
    tiers = DEFAULT_TIERS

    def __init__(self, node_id: int):
        self.node_id = node_id
        #: Cache tiers only — the remote backstop holds no residency map.
        self._resident: Dict[str, "OrderedDict[Tuple, float]"] = {
            tier.name: OrderedDict() for tier in self.tiers[:-1]}
        self.events: List[CacheEvent] = []
        self._seq = 0

    # -- introspection -------------------------------------------------------

    @property
    def remote(self) -> TierSpec:
        return self.tiers[-1]

    def tier_index(self, name: str) -> int:
        for index, tier in enumerate(self.tiers):
            if tier.name == name:
                return index
        raise InvalidValueError(f"unknown tier {name!r}")

    def tier_of(self, key: Tuple) -> Optional[str]:
        """The cache tier holding ``key``, or None (remote only)."""
        for tier in self.tiers[:-1]:
            if key in self._resident[tier.name]:
                return tier.name
        return None

    def load(self, tier_name: str) -> float:
        """Summed artifact sizes resident in one cache tier."""
        return sum(self._resident[tier_name].values())

    # -- mutation ------------------------------------------------------------

    def _log(self, kind: str, key: Tuple, tier: str) -> None:
        self.events.append(CacheEvent(self._seq, kind, key, tier))
        self._seq += 1

    def _drop(self, key: Tuple) -> None:
        for residency in self._resident.values():
            residency.pop(key, None)

    def _place(self, key: Tuple, size: float, index: int,
               kind: str) -> List[Tuple[Tuple, str]]:
        """Insert ``key`` into tier ``index``, cascading demotions.

        Skips tiers too small to ever hold the artifact; returns the
        ``(key, tier)`` pairs that fell out of the hierarchy entirely.
        """
        spilled: List[Tuple[Tuple, str]] = []
        while index < len(self.tiers) - 1 \
                and size > self.tiers[index].capacity:
            index += 1
        if index >= len(self.tiers) - 1:
            # Nothing below remote can hold it: not cached anywhere.
            self._log("evict", key, self.remote.name)
            spilled.append((key, self.remote.name))
            return spilled
        tier = self.tiers[index]
        residency = self._resident[tier.name]
        while residency and self.load(tier.name) + size > tier.capacity:
            victim, victim_size = next(iter(residency.items()))
            residency.pop(victim)
            spilled.extend(self._place(victim, victim_size, index + 1,
                                       "demote"))
        residency[key] = size
        self._log(kind, key, tier.name)
        return spilled

    def admit(self, key: Tuple, size: float,
              tier_name: str = TIER_DRAM) -> List[Tuple[Tuple, str]]:
        """Admit a freshly fetched artifact into ``tier_name``.

        Returns the ``(key, tier)`` pairs the admission pushed out of the
        cache hierarchy entirely (the eviction events metrics count).
        """
        if size <= 0:
            raise InvalidValueError("artifact size must be positive")
        self._drop(key)
        return self._place(key, size, self.tier_index(tier_name), "admit")

    def hit(self, key: Tuple) -> Tuple[str, Optional[Tuple[str, str]],
                                       List[Tuple[Tuple, str]]]:
        """Serve one hit: LRU-refresh, then promote one tier warmer.

        Returns ``(tier_served_from, (from, to) | None, spilled)``.
        """
        tier_name = self.tier_of(key)
        if tier_name is None:
            raise InvalidValueError(
                f"hit on non-resident artifact {key!r}")
        self._log("hit", key, tier_name)
        index = self.tier_index(tier_name)
        residency = self._resident[tier_name]
        residency.move_to_end(key)
        if index == 0:
            return tier_name, None, []
        size = residency.pop(key)
        warmer = index - 1
        spilled = self._place(key, size, warmer, "promote")
        landed = self.tier_of(key)
        promoted = (tier_name, landed) \
            if landed is not None and landed != tier_name else None
        return tier_name, promoted, spilled


class PlacementPolicy:
    """Chooses the node a cold start lands on and prices its fetch.

    Subclasses override :meth:`place` (node choice among the free nodes)
    and :meth:`resolve_fetch` (cache bookkeeping plus the tier-resolved
    ``fetch_artifact`` duration).  The base class owns the per-node
    caches and the launch counters the least-loaded fallback uses.
    """

    name = "base"

    def __init__(self, num_nodes: int):
        if num_nodes <= 0:
            raise InvalidValueError("num_nodes must be positive")
        self.caches = [NodeCache(node) for node in range(num_nodes)]
        #: Per-node *chunk*-level residency, created lazily on the first
        #: chunk-streamed fetch: a separate hierarchy keyed by content
        #: digest, so chunk bookkeeping never evicts whole-artifact
        #: entries (blob-granular runs stay bit-identical).
        self._chunk_caches: List[Optional[NodeCache]] = [None] * num_nodes
        #: Cold starts placed per node — the least-loaded tie-breaker.
        self.placements = [0] * num_nodes

    # -- helpers -------------------------------------------------------------

    def _least_loaded(self, free_nodes: Sequence[int]) -> int:
        return min(free_nodes, key=lambda node: (self.placements[node],
                                                 node))

    def _chunk_cache(self, node_id: int) -> NodeCache:
        """The node's chunk-residency hierarchy, created on first use."""
        cache = self._chunk_caches[node_id]
        if cache is None:
            cache = NodeCache(node_id)
            self._chunk_caches[node_id] = cache
        return cache

    def record_placement(self, node_id: int) -> None:
        self.placements[node_id] += 1

    # -- policy hooks --------------------------------------------------------

    def place(self, free_nodes: Sequence[int], key: Optional[Tuple]) -> int:
        """The free node this cold start should launch on."""
        raise NotImplementedError

    def choose_victim(self, nodes: Sequence[Optional[int]],
                      key: Optional[Tuple]) -> int:
        """Which eviction candidate to retire so ``key`` can launch.

        ``nodes`` holds each candidate's primary node id (None when the
        pool runs without node identity), in the pool's legacy scan
        order.  Returns an index into ``nodes``; the base (and flat)
        behaviour picks the first candidate — the pre-placement scan.
        """
        return 0

    def resolve_fetch(self, node_id: int, key: Optional[Tuple],
                      size: float, base_duration: float
                      ) -> Optional[FetchResolution]:
        """Price the artifact fetch on ``node_id`` and update its cache.

        ``None`` (the base and flat behaviour) means the policy does not
        manage artifact locality: the caller charges the plan's own fetch
        duration and records nothing.
        """
        return None

    def resolve_chunk_fetch(self, node_id: int, digest: str, size: float,
                            base_duration: float
                            ) -> Optional[FetchResolution]:
        """Price one content-addressed chunk's fetch on ``node_id``.

        ``digest`` identifies the chunk *by content*, so two models
        sharing a chunk hit each other's residency.  ``size`` is the
        chunk's share of the artifact's tier-capacity footprint and
        ``base_duration`` its share of the plan's remote fetch time.
        ``None`` means the policy does not track chunk residency (the
        flat baseline): the caller keeps the blob-granular resolution.
        """
        return None


class FlatPlacement(PlacementPolicy):
    """The pre-placement baseline: first free node, remote-cost fetches.

    Performs no cache bookkeeping and returns no resolution, so runs
    under ``policy="flat"`` are bit-identical to the simulators before
    the placement layer existed.
    """

    name = "flat"

    def place(self, free_nodes: Sequence[int],
              key: Optional[Tuple]) -> int:
        return min(free_nodes)


class LocalityPlacement(PlacementPolicy):
    """Route to the free node holding the artifact in the warmest tier.

    Ties (same tier warmth) and the nothing-resident case fall back to
    the least-loaded free node, lowest node id first.  Misses fetch at
    the remote baseline and admit the artifact into the node's DRAM
    tier; hits fetch at the resident tier's cost and promote one tier
    warmer.
    """

    name = "locality"

    #: Tier a freshly fetched artifact is admitted into (host memory —
    #: the deserialized bytes land in DRAM before moving anywhere else).
    admit_tier = TIER_DRAM

    def place(self, free_nodes: Sequence[int],
              key: Optional[Tuple]) -> int:
        if key is None:
            return self._least_loaded(free_nodes)
        best: Optional[Tuple[int, int]] = None   # (tier index, node)
        for node in free_nodes:
            tier = self.caches[node].tier_of(key)
            if tier is None:
                continue
            rank = (self.caches[node].tier_index(tier), node)
            if best is None or rank < best:
                best = rank
        if best is not None:
            return best[1]
        return self._fallback(free_nodes, key)

    def _fallback(self, free_nodes: Sequence[int],
                  key: Tuple) -> int:
        """Where to place when no free node holds the artifact."""
        return self._least_loaded(free_nodes)

    def choose_victim(self, nodes: Sequence[Optional[int]],
                      key: Optional[Tuple]) -> int:
        """Retire the candidate whose node already holds the artifact.

        Evicting that instance frees exactly the node where ``key`` is
        warmest, so the ensuing launch lands on its own residency; with
        nothing resident anywhere, fall back to the first candidate (the
        legacy scan order).
        """
        if key is None:
            return 0
        best: Optional[Tuple[int, int]] = None   # (tier index, list index)
        for index, node in enumerate(nodes):
            if node is None:
                continue
            tier = self.caches[node].tier_of(key)
            if tier is None:
                continue
            rank = (self.caches[node].tier_index(tier), index)
            if best is None or rank < best:
                best = rank
        return best[1] if best is not None else 0

    def _resolve(self, cache: NodeCache, key: Tuple, size: float,
                 base_duration: float) -> FetchResolution:
        """Resolve one fetch of ``key`` against one node's ``cache``.

        A miss fetches at the remote baseline and admits ``key`` into
        ``admit_tier``; a hit fetches at the resident tier's cost and
        promotes it one tier warmer.
        """
        if cache.tier_of(key) is None:
            spilled = cache.admit(key, size, self.admit_tier)
            return FetchResolution(
                node_id=cache.node_id, tier=cache.remote.name, hit=False,
                base_duration=base_duration, duration=base_duration,
                evicted=tuple(spilled))
        tier, promoted, spilled = cache.hit(key)
        return FetchResolution(
            node_id=cache.node_id, tier=tier, hit=True,
            base_duration=base_duration,
            duration=fetch_duration(tier, base_duration),
            evicted=tuple(spilled), promoted=promoted)

    def resolve_fetch(self, node_id: int, key: Optional[Tuple],
                      size: float, base_duration: float
                      ) -> Optional[FetchResolution]:
        if key is None:
            return None
        return self._resolve(self.caches[node_id], key, size,
                             base_duration)

    def resolve_chunk_fetch(self, node_id: int, digest: str, size: float,
                            base_duration: float
                            ) -> Optional[FetchResolution]:
        """Resolve one chunk against the node's chunk-level residency.

        :meth:`resolve_fetch` at chunk granularity.  Residency is keyed
        by content digest, so sibling models sharing chunks warm each
        other.  Tier capacities are in artifact-size units, so a
        zero-share chunk still takes a positive footprint to be
        admissible.
        """
        return self._resolve(self._chunk_cache(node_id), ("chunk", digest),
                             max(size, 1e-9), base_duration)


class AffinityPlacement(LocalityPlacement):
    """Locality placement with Tangram-style residency memory.

    When no free node currently *holds* the artifact, prefer a free node
    that hosted it before (most recently first) over a cold stranger:
    even after eviction, re-fetching onto a node that served the model
    keeps its future hits clustered instead of smearing the artifact
    across the cluster.
    """

    name = "affinity"

    def __init__(self, num_nodes: int):
        super().__init__(num_nodes)
        #: key -> node -> last placement sequence number.
        self._hosted: Dict[Tuple, Dict[int, int]] = {}
        self._clock = 0

    def _fallback(self, free_nodes: Sequence[int], key: Tuple) -> int:
        history = self._hosted.get(key, {})
        prior = [node for node in free_nodes if node in history]
        if prior:
            return max(prior, key=lambda node: (history[node], -node))
        return self._least_loaded(free_nodes)

    def choose_victim(self, nodes: Sequence[Optional[int]],
                      key: Optional[Tuple]) -> int:
        """Prefer a resident node's candidate, else an ever-hosting one."""
        pick = super().choose_victim(nodes, key)
        if key is None:
            return pick
        node = nodes[pick] if 0 <= pick < len(nodes) else None
        if node is not None and self.caches[node].tier_of(key) is not None:
            return pick
        history = self._hosted.get(key, {})
        best: Optional[Tuple[Tuple[int, int], int]] = None
        for index, node in enumerate(nodes):
            if node is None or node not in history:
                continue
            rank = (history[node], -index)
            if best is None or rank > best[0]:
                best = (rank, index)
        return best[1] if best is not None else pick

    def resolve_fetch(self, node_id: int, key: Optional[Tuple],
                      size: float, base_duration: float
                      ) -> Optional[FetchResolution]:
        if key is not None:
            self._clock += 1
            self._hosted.setdefault(key, {})[node_id] = self._clock
        return super().resolve_fetch(node_id, key, size, base_duration)


_POLICIES = {
    FlatPlacement.name: FlatPlacement,
    LocalityPlacement.name: LocalityPlacement,
    AffinityPlacement.name: AffinityPlacement,
}


def policy_names() -> Tuple[str, ...]:
    """The registered policy names, alphabetical."""
    return tuple(sorted(_POLICIES))


def make_policy(spec, num_nodes: int) -> PlacementPolicy:
    """Build a fresh policy for one simulation run.

    ``spec`` is a registered name (``"flat"``, ``"locality"``,
    ``"affinity"``) or an already-built instance (reused as-is — callers
    own its cache state then).
    """
    if isinstance(spec, PlacementPolicy):
        return spec
    if isinstance(spec, str) and spec in _POLICIES:
        return _POLICIES[spec](num_nodes)
    raise InvalidValueError(
        f"unknown placement policy {spec!r}; "
        f"registered: {', '.join(policy_names())}")
