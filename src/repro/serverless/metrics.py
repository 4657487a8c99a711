"""Metrics collected by the cluster simulator (Figures 10/11)."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional

from repro.utils.stats import mean, percentile, summarize


@dataclass
class SimulationMetrics:
    """TTFT tail, throughput, and cold-start accounting for one run."""

    horizon: float = 0.0
    ttfts: List[float] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    completed: int = 0
    arrived: int = 0
    cold_starts: int = 0
    # Cold starts that finished on a lower degradation-ladder rung (the
    # instance still serves, but its loading phase lost the full restore).
    degraded_cold_starts: int = 0
    degraded_rungs: Dict[str, int] = field(default_factory=dict)
    # Artifact-store LRU outcomes for the cold starts that fetched through
    # a store (ModelDeployment.artifact_store): a hit skips deserialization
    # and static lint entirely (see repro.core.store.ArtifactStore).
    store_cache_hits: int = 0
    store_cache_misses: int = 0
    # Stage-granular cold-start accounting (profile-driven launches only):
    # summed seconds and completion counts per LoadPlan stage name, as
    # observed from the cluster's stage-done events.
    cold_stage_seconds: Dict[str, float] = field(default_factory=dict)
    cold_stage_counts: Dict[str, int] = field(default_factory=dict)
    # Cold starts the scale-down policy aborted mid-flight, keyed by the
    # stage boundary the cancellation took effect at.
    cancelled_cold_starts: int = 0
    cancelled_at_stage: Dict[str, int] = field(default_factory=dict)
    # Serving steps that overlapped a pipelined restore's background tail
    # (and the extra seconds that contention cost them).
    background_contended_steps: int = 0
    background_contention_seconds: float = 0.0
    # Locality placement layer (repro.serverless.placement): artifact
    # fetches resolved against a node's tier hierarchy.  Hits are keyed
    # by the tier served from; misses fetched from the remote store.
    tier_hits: Dict[str, int] = field(default_factory=dict)
    tier_misses: int = 0
    # Artifacts pushed out of a node's cache hierarchy entirely, keyed by
    # the tier the spill was recorded against, and promotions one tier
    # warmer on cache hits, keyed by the tier landed in.
    tier_evictions: Dict[str, int] = field(default_factory=dict)
    tier_promotions: Dict[str, int] = field(default_factory=dict)
    # Seconds of fetch_artifact time the tier-resolved fetches saved
    # against the plans' remote baselines.
    fetch_seconds_saved: float = 0.0
    # Chunk-streamed fetches (content-addressed artifact chunks resolved
    # against per-node chunk residency): chunks already resident (shared
    # with a prior — possibly sibling-model — cold start), bytes those
    # hits avoided re-fetching, and bytes actually fetched before the
    # instance's ready instant.  All stay zero for blob-granular runs.
    chunk_hits: int = 0
    bytes_deduped: float = 0.0
    fetch_bytes_foreground: float = 0.0
    provisioned_gpu_seconds: float = 0.0   # ready time across instances
    busy_gpu_seconds: float = 0.0          # time instances spent serving
    # SLO accounting (repro.serverless.autoscale): the per-request TTFT
    # budget this run is held to (0.0 = no SLO configured), requests
    # whose TTFT exceeded it, TTFT seconds attributable to waiting on
    # cold starts, and provisioned-but-idle warm seconds — the two
    # quantities the scale-down policies trade against each other.
    slo_ttft: float = 0.0
    slo_violations: int = 0
    cold_start_tax_seconds: float = 0.0
    wasted_warm_seconds: float = 0.0
    # Autoscale-policy decision counters ("retire", "scale_up",
    # "idle_tick_armed", ...), folded in from the policy at end of run.
    autoscale_decisions: Dict[str, int] = field(default_factory=dict)

    def record_ttft(self, ttft: float, cold_tax: float = 0.0) -> None:
        """Record one request's TTFT (and its cold-start share)."""
        self.ttfts.append(ttft)
        self.cold_start_tax_seconds += cold_tax
        if self.slo_ttft > 0 and ttft > self.slo_ttft:
            self.slo_violations += 1

    def record_instance_lifetime(self, provisioned: float,
                                 busy: float) -> None:
        """Account one instance's provisioned/busy GPU seconds.

        The provisioned-minus-busy remainder is the instance's wasted
        warm time — what a scale-down policy pays for keeping it alive.
        """
        self.provisioned_gpu_seconds += provisioned
        self.busy_gpu_seconds += busy
        self.wasted_warm_seconds += max(0.0, provisioned - busy)

    def count(self, name: str, amount: float = 1,
              key: Optional[str] = None) -> None:
        """Add ``amount`` to counter field ``name``, or to its ``key`` entry.

        The one recording call for every pure counter, numeric fields
        (``cold_starts``) and per-label dicts (``tier_hits``) alike.
        """
        if key is None:
            setattr(self, name, getattr(self, name) + amount)
        else:
            counts = getattr(self, name)
            counts[key] = counts.get(key, 0) + amount

    def record_completion(self, latency: float,
                          in_horizon: bool = True) -> None:
        self.latencies.append(latency)
        if in_horizon:
            self.completed += 1

    @property
    def slo_attainment(self) -> float:
        """Fraction of recorded TTFTs within the SLO (1.0 without one)."""
        if self.slo_ttft <= 0 or not self.ttfts:
            return 1.0
        return 1.0 - self.slo_violations / len(self.ttfts)

    @property
    def p99_ttft(self) -> float:
        return percentile(self.ttfts, 99.0)

    @property
    def p90_ttft(self) -> float:
        """The 90th-percentile TTFT (the tail Figures 10/11 track)."""
        return percentile(self.ttfts, 90.0)

    @property
    def p50_ttft(self) -> float:
        return percentile(self.ttfts, 50.0)

    @property
    def mean_ttft(self) -> float:
        return mean(self.ttfts)

    @property
    def gpu_utilization(self) -> float:
        """Busy fraction of provisioned GPU time (hot spares drag it down)."""
        if self.provisioned_gpu_seconds <= 0:
            return 0.0
        return min(1.0, self.busy_gpu_seconds / self.provisioned_gpu_seconds)

    @property
    def wasted_gpu_seconds(self) -> float:
        return max(0.0, self.provisioned_gpu_seconds - self.busy_gpu_seconds)

    @property
    def throughput(self) -> float:
        """Achieved serving throughput: completions per simulated second."""
        if self.horizon <= 0:
            return 0.0
        return self.completed / self.horizon

    def merge(self, other: "SimulationMetrics") -> None:
        """Fold ``other`` into this aggregate view, field by field.

        Lists extend, per-label dicts add key by key, numbers add.  Two
        fields are settings, not counters: ``horizon`` stays this
        object's own, and a configured ``slo_ttft`` carries over.
        """
        for spec in fields(self):
            name = spec.name
            mine, theirs = getattr(self, name), getattr(other, name)
            if name == "horizon":
                continue
            if name == "slo_ttft":
                if theirs > 0:
                    self.slo_ttft = theirs
            elif isinstance(mine, list):
                mine.extend(theirs)
            elif isinstance(mine, dict):
                for key, value in theirs.items():
                    mine[key] = mine.get(key, 0) + value
            else:
                setattr(self, name, mine + theirs)

    def summary(self) -> Dict[str, float]:
        report = {f"ttft_{k}": v for k, v in summarize(self.ttfts).items()}
        report["p90_ttft"] = self.p90_ttft
        report["arrived"] = float(self.arrived)
        report["completed"] = float(self.completed)
        report["throughput"] = self.throughput
        for name in ("cold_starts", "degraded_cold_starts",
                     "store_cache_hits", "store_cache_misses",
                     "cancelled_cold_starts", "background_contended_steps",
                     "background_contention_seconds", "tier_misses",
                     "fetch_seconds_saved", "cold_start_tax_seconds",
                     "wasted_warm_seconds"):
            report[name] = float(getattr(self, name))
        # SLO keys appear only when a TTFT budget was configured, and
        # autoscale decision counters only when the policy acted, so
        # default keep-alive runs keep their summaries change-free.
        if self.slo_ttft > 0:
            report["slo_ttft"] = self.slo_ttft
            report["slo_violations"] = float(self.slo_violations)
            report["slo_attainment"] = self.slo_attainment
        for kind in sorted(self.autoscale_decisions):
            report[f"autoscale[{kind}]"] = \
                float(self.autoscale_decisions[kind])
        # Chunk-fetch counters appear only when a chunk stream ran, so
        # blob-granular runs keep their golden summaries byte-identical.
        if self.chunk_hits or self.bytes_deduped \
                or self.fetch_bytes_foreground:
            report["chunk_hits"] = float(self.chunk_hits)
            report["bytes_deduped"] = self.bytes_deduped
            report["fetch_bytes_foreground"] = self.fetch_bytes_foreground
        for label, counts in (("tier_hits", self.tier_hits),
                              ("tier_evictions", self.tier_evictions),
                              ("tier_promotions", self.tier_promotions),
                              ("cold_stage", self.cold_stage_seconds)):
            for key in sorted(counts):
                report[f"{label}[{key}]"] = float(counts[key])
        return report
