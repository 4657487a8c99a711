"""Properties of the chunked artifact format (repro.core.chunks).

Three invariants the content-addressed path must hold for any
well-formed artifact:

- Splitting an artifact into chunks and exporting it from the manifest
  is byte-identical to exporting the single-file artifact — for every
  replay shard size, including degenerate ones (one event per shard,
  everything in one shard).
- Chunk digests are a pure function of chunk *content*: an artifact
  stored under a different model identity shares every chunk byte, so a
  store holding N identical-content identities keeps exactly one copy.
- The manifest round-trips through JSON with no drift, and chunking is
  deterministic (same artifact in, same digests out).
"""

import json

from hypothesis import given, settings, strategies as st

from repro.core.binfmt import save_binary
from repro.core.chunks import (
    ChunkManifest,
    ChunkedLazyArtifact,
    chunk_model,
    open_binary,
)
from repro.core.offline import OfflinePhase
from repro.core.store import ArtifactStore
from repro.simgpu.process import ExecutionMode

from tests.conftest import replaced
from tests.property.test_end_to_end_properties import (
    _cost_model,
    model_configs,
)


def _materialized(config, seed):
    artifact, _report = OfflinePhase(
        config, seed=seed, mode=ExecutionMode.COMPUTE,
        cost_model=_cost_model()).run()
    return artifact


class TestChunkRoundTripProperty:
    @settings(max_examples=5, deadline=None)
    @given(config=model_configs(), seed=st.integers(0, 10**6),
           shard_events=st.sampled_from([1, 7, 100, 16384]))
    def test_materialize_matches_monolithic_load(self, config, seed,
                                                 shard_events,
                                                 tmp_path_factory):
        artifact = _materialized(config, seed)
        path = tmp_path_factory.mktemp("chunks") / f"{config.name}.medusa"
        save_binary(artifact, path)
        mono = open_binary(path)

        manifest, blobs = chunk_model(
            artifact, replay_shard_events=shard_events)
        lazy = ChunkedLazyArtifact(manifest,
                                   lambda ref: blobs[ref.digest])
        # The chunked view's metadata mirrors the monolithic artifact...
        assert lazy.model_name == mono.model_name
        assert lazy.batches == mono.batches
        # ...the manifest accounts for every stored byte exactly...
        assert manifest.total_bytes == sum(len(b) for b in blobs.values())
        # ...and the reassembled artifact exports byte-identically to the
        # monolithic file.
        assert lazy.to_json() == mono.to_json()

    @settings(max_examples=5, deadline=None)
    @given(config=model_configs(), seed=st.integers(0, 10**6))
    def test_chunking_is_deterministic(self, config, seed):
        artifact = _materialized(config, seed)
        m1, blobs1 = chunk_model(artifact)
        m2, blobs2 = chunk_model(artifact)
        assert m1.to_json() == m2.to_json()
        assert blobs1 == blobs2

    @settings(max_examples=5, deadline=None)
    @given(config=model_configs(), seed=st.integers(0, 10**6))
    def test_manifest_json_round_trip(self, config, seed):
        artifact = _materialized(config, seed)
        manifest, _blobs = chunk_model(artifact)
        one = manifest.to_json()
        two = ChunkManifest.from_json(one).to_json()
        assert one == two
        assert json.loads(one) == json.loads(two)


class TestChunkDedupProperty:
    @settings(max_examples=4, deadline=None)
    @given(config=model_configs(), seed=st.integers(0, 10**6),
           copies=st.integers(2, 4))
    def test_identical_content_shares_every_chunk(self, config, seed,
                                                  copies,
                                                  tmp_path_factory):
        """N model identities with the same bytes keep one chunk set.

        Chunk digests depend only on the packed member arrays, never on
        the manifest's identity metadata — so a renamed copy of an
        artifact adds manifests, not bytes.
        """
        artifact = _materialized(config, seed)
        store = ArtifactStore(tmp_path_factory.mktemp("store") / "s")
        store.put(artifact)
        baseline = store.stats()
        for i in range(1, copies):
            store.put(replaced(
                artifact, model_name=f"{artifact.model_name}-copy{i}"))

        stats = store.stats()
        assert stats["unique_chunks"] == baseline["unique_chunks"]
        assert stats["unique_bytes"] == baseline["unique_bytes"]
        assert stats["total_chunks"] == copies * baseline["total_chunks"]
        assert stats["dedup_ratio"] == float(copies)
        # Every identity still reads back the same content.
        original = store.get(artifact.gpu_name, artifact.model_name)
        for i in range(1, copies):
            copy = store.get(artifact.gpu_name,
                             f"{artifact.model_name}-copy{i}")
            assert copy.batches == original.batches
            assert copy.permanent_contents == original.permanent_contents

    @settings(max_examples=4, deadline=None)
    @given(config=model_configs(), seed=st.integers(0, 10**6))
    def test_distinct_seeds_never_corrupt_each_other(self, config, seed,
                                                     tmp_path_factory):
        """Two different-content artifacts in one store stay independent."""
        a = _materialized(config, seed)
        b = replaced(_materialized(config, seed + 1),
                     model_name=f"{config.name}-alt")
        store = ArtifactStore(tmp_path_factory.mktemp("store") / "s")
        store.put(a)
        store.put(b)
        got_a = store.get(a.gpu_name, a.model_name)
        got_b = store.get(b.gpu_name, b.model_name)
        assert got_a.to_json() == normalized_json(a)
        assert got_b.to_json() == normalized_json(b)


def normalized_json(artifact):
    """Round-trip through the binary format to normalize dtypes/layout
    exactly the way a store ``get`` does."""
    manifest, blobs = chunk_model(artifact)
    return ChunkedLazyArtifact(
        manifest, lambda ref: blobs[ref.digest]).to_json()
