"""Chunk-granular fetch resolution in the placement layer.

When ``SimulationConfig.chunks`` carries a manifest's chunk records, the
locality policies resolve each ``fetch_chunk[i]`` against a per-node
chunk cache that is separate from the artifact cache: a node warmed by a
chunk-sharing sibling model serves the shared chunks from its tiers and
only fetches the remainder — partial warmth the blob-granular path
cannot express.  Flat placement ignores chunk records entirely, which is
what keeps the golden snapshots bit-exact.
"""

import pytest

from repro.engine.loadplan import ScheduledStage, Timeline
from repro.serverless import (
    ClusterSimulator,
    ColdStartProfile,
    FlatPlacement,
    LocalityPlacement,
    ServingCostModel,
    SimulationConfig,
)
from repro.serverless.metrics import SimulationMetrics
from repro.serverless.placement import ChunkFetchSummary


class Chunk:
    """Duck-typed chunk record (repro.core.chunks.ChunkMeta shape)."""

    def __init__(self, digest, nbytes, foreground=True):
        self.name = f"chunk-{digest}"
        self.digest = digest
        self.nbytes = nbytes
        self.foreground = foreground


CHUNKS_A = (Chunk("shared-1", 600.0), Chunk("shared-2", 300.0),
            Chunk("only-a", 100.0), Chunk("tail-a", 500.0,
                                          foreground=False))
#: Shares 900 of its 1000 foreground bytes with CHUNKS_A.
CHUNKS_B = (Chunk("shared-1", 600.0), Chunk("shared-2", 300.0),
            Chunk("only-b", 100.0), Chunk("tail-b", 400.0,
                                          foreground=False))


def chunk_profile(fetch=2.0):
    stages = [
        ScheduledStage("fetch_artifact", 0.0, fetch, lane="disk"),
        ScheduledStage("replay_alloc", fetch, fetch + 0.2, lane="cpu"),
        ScheduledStage("restore_graph[1]", fetch + 0.2, fetch + 0.8,
                       lane="gpu_compute", critical=True),
    ]
    return ColdStartProfile(loading_time=fetch + 0.8,
                            ready_time=fetch + 0.8,
                            timeline=Timeline(None, stages))


def launch(policy, chunks, costs):
    config = SimulationConfig(num_gpus=1, profile=chunk_profile(),
                              placement=policy, chunks=chunks)
    simulator = ClusterSimulator(costs, config)
    instance = simulator._launch(simulator.model, 0.0)
    return simulator, instance


@pytest.fixture
def costs():
    return ServingCostModel("Llama2-7B")


class TestChunkStreamResolution:
    def test_cold_node_fetches_every_foreground_byte(self, costs):
        simulator, _ = launch(LocalityPlacement(num_nodes=1), CHUNKS_A,
                              costs)
        metrics = simulator.metrics[simulator.model]
        assert metrics.chunk_hits == 0
        assert metrics.bytes_deduped == 0.0
        assert metrics.fetch_bytes_foreground == pytest.approx(1000.0)

    def test_warm_sibling_serves_shared_chunks_from_cache(self, costs):
        policy = LocalityPlacement(num_nodes=1)
        simulator_a, instance_a = launch(policy, CHUNKS_A, costs)
        simulator_b, instance_b = launch(policy, CHUNKS_B, costs)

        cold = simulator_a.metrics[simulator_a.model]
        warm = simulator_b.metrics[simulator_b.model]
        assert warm.chunk_hits == 2
        assert warm.bytes_deduped == pytest.approx(900.0)
        # Only the sibling's private chunk moves in the foreground.
        assert warm.fetch_bytes_foreground == pytest.approx(100.0)
        assert warm.fetch_bytes_foreground \
            <= 0.7 * cold.fetch_bytes_foreground
        # The cache hits make the warm cold start strictly faster.
        fetch_a = instance_a.profile.timeline.stage(
            "fetch_artifact").duration
        fetch_b = instance_b.profile.timeline.stage(
            "fetch_artifact").duration
        assert fetch_b < fetch_a

    def test_chunk_cache_is_separate_from_artifact_cache(self, costs):
        """Chunk admissions never touch the whole-artifact hierarchy."""
        policy = LocalityPlacement(num_nodes=1)
        launch(policy, CHUNKS_A, costs)
        chunk_cache = policy._chunk_cache(0)
        artifact_cache = policy.caches[0]
        chunk_resident = [key for tier in policy.tiers[:-1]
                          for key in chunk_cache.resident_keys(tier.name)]
        artifact_resident = [key for tier in policy.tiers[:-1]
                             for key in
                             artifact_cache.resident_keys(tier.name)]
        assert chunk_resident
        assert all(key[0] == "chunk" for key in chunk_resident)
        assert not any(key[0] == "chunk" for key in artifact_resident)

    def test_foreground_duration_sums_foreground_chunks_only(self, costs):
        policy = LocalityPlacement(num_nodes=1)
        config = SimulationConfig(num_gpus=1, profile=chunk_profile(),
                                  placement=policy, chunks=CHUNKS_A)
        simulator = ClusterSimulator(costs, config)
        _nodes, resolution = simulator._place(
            simulator.deployments[simulator.model], cold=True)
        summary = resolution.chunks
        assert isinstance(summary, ChunkFetchSummary)
        assert summary.chunks == len(CHUNKS_A)
        assert summary.hits == 0
        assert summary.foreground_bytes == pytest.approx(1000.0)
        # A fully cold stream pays the whole remote fetch in the
        # foreground: per-chunk durations were sized against the
        # foreground byte total, so they sum back to the base fetch.
        assert summary.foreground_seconds == pytest.approx(2.0)
        assert resolution.duration == pytest.approx(2.0)

    def test_flat_placement_ignores_chunk_records(self, costs):
        simulator, instance = launch(FlatPlacement(num_nodes=1), CHUNKS_A,
                                     costs)
        assert instance.fetch_tier == ""
        metrics = simulator.metrics[simulator.model]
        assert metrics.chunk_hits == 0
        assert metrics.fetch_bytes_foreground == 0.0
        report = metrics.summary()
        assert "chunk_hits" not in report
        assert "bytes_deduped" not in report
        assert "fetch_bytes_foreground" not in report


def record_chunk_fetch(metrics, hits, bytes_deduped, foreground_bytes):
    """Count one chunk-streamed fetch the way the pool does."""
    metrics.count("chunk_hits", hits)
    metrics.count("bytes_deduped", bytes_deduped)
    metrics.count("fetch_bytes_foreground", foreground_bytes)


class TestChunkMetrics:
    def test_summary_emits_chunk_keys_only_when_nonzero(self):
        metrics = SimulationMetrics()
        assert "chunk_hits" not in metrics.summary()
        record_chunk_fetch(metrics, hits=3, bytes_deduped=17.0,
                           foreground_bytes=5.0)
        report = metrics.summary()
        assert report["chunk_hits"] == 3.0
        assert report["bytes_deduped"] == 17.0
        assert report["fetch_bytes_foreground"] == 5.0

    def test_merge_folds_chunk_counters(self):
        a = SimulationMetrics()
        record_chunk_fetch(a, hits=1, bytes_deduped=10.0,
                           foreground_bytes=100.0)
        b = SimulationMetrics()
        record_chunk_fetch(b, hits=2, bytes_deduped=20.0,
                           foreground_bytes=200.0)
        merged = SimulationMetrics()
        merged.merge(a)
        merged.merge(b)
        assert merged.chunk_hits == 3
        assert merged.bytes_deduped == pytest.approx(30.0)
        assert merged.fetch_bytes_foreground == pytest.approx(300.0)
