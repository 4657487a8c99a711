"""Artifact store tests."""

import os
from unittest import mock

import pytest

from repro.core import chunks
from repro.core.chunks import ChunkedLazyArtifact
from repro.core.store import ArtifactStore
from repro.errors import ArtifactError
from tests.conftest import replaced, unchunked


class TestArtifactStore:
    def test_put_get_roundtrip(self, tmp_path, tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        store = ArtifactStore(tmp_path / "store")
        store.put(artifact)
        loaded = store.get(artifact.gpu_name, artifact.model_name)
        assert loaded.model_name == artifact.model_name
        assert loaded.total_nodes == artifact.total_nodes

    def test_opening_creates_nothing_and_put_makes_the_root(
            self, tmp_path, tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        store = ArtifactStore(tmp_path / "a" / "store")
        assert not (tmp_path / "a").exists()
        assert not store.has(artifact.gpu_name, artifact.model_name)
        with pytest.raises(ArtifactError, match="no artifact store at"):
            store.stats()
        assert not (tmp_path / "a").exists()
        store.put(artifact)
        assert store.stats()["total_chunks"] > 0

    def test_keyed_by_gpu_and_model(self, tmp_path, tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        store = ArtifactStore(tmp_path)
        store.put(artifact)
        assert store.has(artifact.gpu_name, artifact.model_name)
        assert not store.has("H100", artifact.model_name)
        assert not store.has(artifact.gpu_name, "Other-Model")

    def test_get_missing_raises(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(ArtifactError):
            store.get("A100", "Nope")

    def test_list(self, tmp_path, tiny2l_artifact, tiny4l_artifact):
        a2, _ = tiny2l_artifact
        a4, _ = tiny4l_artifact
        store = ArtifactStore(tmp_path)
        store.put(a2)
        store.put(a4)
        assert store.list() == sorted([(a2.gpu_name, a2.model_name),
                                       (a4.gpu_name, a4.model_name)])

    def test_put_overwrites(self, tmp_path, tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        store = ArtifactStore(tmp_path)
        store.put(artifact)
        store.put(artifact)
        assert len(store.list()) == 1

    def test_corrupt_index_raises(self, tmp_path):
        (tmp_path / "index.json").write_text("{broken")
        with pytest.raises(ArtifactError):
            ArtifactStore(tmp_path).list()

    def test_restore_from_store(self, tmp_path, tiny2l_artifact):
        from repro.core.online import medusa_cold_start
        from tests.conftest import tiny_cost_model
        artifact, _ = tiny2l_artifact
        store = ArtifactStore(tmp_path)
        store.put(artifact)
        loaded = store.get(artifact.gpu_name, artifact.model_name)
        _engine, report = medusa_cold_start(
            "Tiny-2L", loaded, seed=5, cost_model=tiny_cost_model())
        assert report.loading_time > 0


#: An old modification time: a write after ``_age`` always changes it.
_OLD_NS = 1_000_000_000_000_000_000


def _age(root):
    """Set every file under ``root`` to :data:`_OLD_NS`; returns the paths."""
    paths = sorted(path for path in root.rglob("*") if path.is_file())
    for path in paths:
        os.utime(path, ns=(_OLD_NS, _OLD_NS))
    return paths


class TestUnchangedWrites:
    """A put that changes no bytes rewrites no file."""

    def test_second_put_touches_no_file(self, tmp_path, tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        store = ArtifactStore(tmp_path)
        store.put(artifact)
        paths = _age(tmp_path)
        store.put(artifact)
        assert sorted(path for path in tmp_path.rglob("*")
                      if path.is_file()) == paths
        assert [path.stat().st_mtime_ns for path in paths] == \
            [_OLD_NS] * len(paths)
        # The stamp caches stay valid across a put: nothing is parsed
        # again.
        store.get(artifact.gpu_name, artifact.model_name)
        reads = (store.index_reads, store.manifest_reads)
        store.put(artifact)
        store.get(artifact.gpu_name, artifact.model_name)
        assert (store.index_reads, store.manifest_reads) == reads

    def test_changed_artifact_is_rewritten(self, tmp_path, tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        changed = replaced(artifact,
                           kv_num_blocks=artifact.kv_num_blocks + 1)
        store = ArtifactStore(tmp_path)
        path = store.put(artifact)
        _age(tmp_path)
        assert store.put(changed) == path
        assert path.stat().st_mtime_ns != _OLD_NS
        assert store.get(artifact.gpu_name,
                         artifact.model_name).kv_num_blocks == \
            changed.kv_num_blocks

    def test_save_binary_skips_identical_bytes(self, tmp_path,
                                               tiny2l_artifact):
        from repro.core.binfmt import save_binary
        artifact, _ = tiny2l_artifact
        path = tmp_path / "a.medusa"
        size = save_binary(artifact, path)
        os.utime(path, ns=(_OLD_NS, _OLD_NS))
        assert save_binary(artifact, path) == size == path.stat().st_size
        assert path.stat().st_mtime_ns == _OLD_NS
        changed = replaced(artifact,
                           kv_num_blocks=artifact.kv_num_blocks + 1)
        assert save_binary(changed, path) == path.stat().st_size
        assert path.stat().st_mtime_ns != _OLD_NS


class TestStoreCaches:
    """The parsed-index cache and the content-hash artifact LRU."""

    def test_hundred_gets_read_index_once(self, tmp_path, tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        ArtifactStore(tmp_path).put(artifact)
        store = ArtifactStore(tmp_path)   # fresh instance, cold caches
        for _ in range(100):
            store.get(artifact.gpu_name, artifact.model_name)
        assert store.index_reads == 1

    def test_index_cache_invalidates_on_write(self, tmp_path,
                                              tiny2l_artifact,
                                              tiny4l_artifact):
        a2, _ = tiny2l_artifact
        a4, _ = tiny4l_artifact
        reader = ArtifactStore(tmp_path)
        ArtifactStore(tmp_path).put(a2)
        reader.get(a2.gpu_name, a2.model_name)
        assert reader.index_reads == 1
        # A second writer updates index.json behind the reader's back;
        # the (mtime_ns, size) stamp must force a re-parse.
        ArtifactStore(tmp_path).put(a4)
        reader.get(a4.gpu_name, a4.model_name)
        assert reader.index_reads == 2

    def test_lru_hit_and_miss_counters(self, tmp_path, tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        store = ArtifactStore(tmp_path)
        store.put(artifact)
        first = store.get(artifact.gpu_name, artifact.model_name)
        second = store.get(artifact.gpu_name, artifact.model_name)
        assert second is first            # the opened artifact itself
        assert (store.cache_hits, store.cache_misses) == (1, 1)
        assert len(store._cache) == 1

    def test_rewrite_same_content_still_hits(self, tmp_path,
                                             tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        store = ArtifactStore(tmp_path)
        store.put(artifact)
        store.get(artifact.gpu_name, artifact.model_name)
        # Same bytes under a new stamp, as a rewrite by another writer.
        _age(tmp_path)
        store.get(artifact.gpu_name, artifact.model_name)
        assert store.manifest_reads == 2
        assert store.cache_hits == 1      # content hash, not file stamp

    def test_lru_evicts_oldest(self, tmp_path, tiny2l_artifact,
                               tiny4l_artifact, monkeypatch):
        a2, _ = tiny2l_artifact
        a4, _ = tiny4l_artifact
        monkeypatch.setattr(ArtifactStore, "CACHE_SIZE", 1)
        store = ArtifactStore(tmp_path)
        store.put(a2)
        store.put(a4)
        store.get(a2.gpu_name, a2.model_name)
        store.get(a4.gpu_name, a4.model_name)   # evicts a2
        store.get(a2.gpu_name, a2.model_name)   # miss again
        assert len(store._cache) == 1
        assert store.cache_misses == 3
        assert store.cache_hits == 0

    def test_get_decodes_no_chunk(self, tmp_path, tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        store = ArtifactStore(tmp_path)
        store.put(artifact)
        with mock.patch.object(chunks, "unpack_chunk",
                               wraps=chunks.unpack_chunk) as unpack:
            miss = store.get(artifact.gpu_name, artifact.model_name)
            assert isinstance(miss, ChunkedLazyArtifact)
            hit = store.get(artifact.gpu_name, artifact.model_name)
        assert hit is miss
        assert unpack.call_count == 0
        assert (store.cache_hits, store.cache_misses) == (1, 1)


def _put(store, artifact):
    """Put a copy of ``artifact`` that has no chunk set yet; returns the
    chunks it compressed, the chunks it wrote and the manifest's
    bytes."""
    compressed, written = store.chunks_compressed, store.chunks_written
    path = store.put(unchunked(artifact))
    return (store.chunks_compressed - compressed,
            store.chunks_written - written, path.read_bytes())


def _with_changed_dump(artifact):
    """``artifact`` with one permanent buffer's contents changed: only
    its ``dumps`` chunk moves."""
    contents = artifact.to_payload()["permanent_contents"]
    first = sorted(contents)[0]
    return replaced(artifact, permanent_contents=dict(
        contents, **{first: [[value + 1.0 for value in row]
                             for row in contents[first]]}))


def _manifest_file(store):
    (filename,) = store._read_index().values()
    return store.root / filename


class TestReput:
    """A re-put compresses and writes only the chunks that changed, and
    its manifest is byte-identical to a fresh store's put."""

    @pytest.fixture
    def stored(self, tmp_path, tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        store = ArtifactStore(tmp_path / "store")
        store.put(artifact)
        return store, artifact

    @staticmethod
    def _fresh(tmp_path, artifact) -> bytes:
        return _put(ArtifactStore(tmp_path / "fresh"), artifact)[2]

    def _blob_of(self, store, artifact, name):
        refs = store.manifest(artifact.gpu_name, artifact.model_name).chunks
        digest, = [ref.digest for ref in refs if ref.name == name]
        return store.root / "chunks" / digest

    @pytest.mark.parametrize("same_process", [True, False],
                             ids=["same-store", "new-store"])
    def test_unchanged_artifact(self, stored, tmp_path, same_process):
        store, artifact = stored
        if not same_process:          # every stamp cache starts empty
            store = ArtifactStore(store.root)
        assert _put(store, artifact) == (0, 0, self._fresh(tmp_path,
                                                           artifact))
        assert store.chunks_deduped == 9

    def test_one_changed_chunk(self, stored, tmp_path):
        store, artifact = stored
        changed = _with_changed_dump(artifact)
        before = store.manifest(artifact.gpu_name, artifact.model_name)
        assert _put(store, changed) == (1, 1, self._fresh(tmp_path, changed))
        after = store.manifest(artifact.gpu_name, artifact.model_name)
        assert [ref.name for ref, old in zip(after.chunks, before.chunks)
                if ref.digest != old.digest] == ["dumps"]

    @pytest.mark.parametrize("damage", ["truncate", "flip"])
    def test_blob_failing_its_digest_is_compressed_and_healed(
            self, stored, tmp_path, damage):
        store, artifact = stored
        blob = self._blob_of(store, artifact, "graph[4].head")
        data = blob.read_bytes()
        blob.write_bytes(data[:len(data) // 2] if damage == "truncate"
                         else data[:-1] + bytes([data[-1] ^ 1]))
        assert _put(store, artifact) == (1, 1, self._fresh(tmp_path,
                                                           artifact))
        assert blob.read_bytes() == data

    def test_blob_holding_other_content_is_compressed(self, stored,
                                                      tmp_path):
        """A previous manifest whose refs name each other's blobs: each
        blob verifies against its digest but decompresses to another
        chunk's container."""
        store, artifact = stored
        path = _manifest_file(store)
        text = path.read_text()
        kernels = self._blob_of(store, artifact, "kernels").name
        dumps = self._blob_of(store, artifact, "dumps").name
        path.write_text(text.replace(kernels, "@").replace(dumps, kernels)
                        .replace("@", dumps))
        assert _put(store, artifact) == (2, 0, self._fresh(tmp_path,
                                                           artifact))

    def test_missing_blob_is_compressed_and_written(self, stored, tmp_path):
        store, artifact = stored
        self._blob_of(store, artifact, "replay[0]").unlink()
        assert _put(store, artifact) == (1, 1, self._fresh(tmp_path,
                                                           artifact))

    @pytest.mark.parametrize("damage", ["missing", "invalid-json",
                                        "digest-is-a-path"])
    def test_unreadable_previous_manifest_reuses_nothing(
            self, stored, tmp_path, damage):
        store, artifact = stored
        path = _manifest_file(store)
        if damage == "missing":
            path.unlink()
        elif damage == "invalid-json":
            path.write_bytes(b"{not json")
        else:
            kernels = self._blob_of(store, artifact, "kernels").name
            path.write_text(path.read_text().replace(kernels,
                                                     "../index.json"))
            with pytest.raises(ArtifactError, match="is not a sha256"):
                store.get_lazy(artifact.gpu_name, artifact.model_name)
        assert _put(store, artifact) == (9, 0, self._fresh(tmp_path,
                                                           artifact))

    def test_first_put_serializes_each_chunk_once(self, tmp_path,
                                                  tiny2l_artifact,
                                                  monkeypatch):
        """The codec is reached through the module attributes a tracer
        hooks: a first put packs each chunk once and builds its
        container once; a re-put of the same content builds each
        container once and packs none; a re-put of the same artifact
        object takes its cached chunk set and builds nothing.  No put
        hashes a blob already stored: it compares the bytes."""
        from repro.core import chunks
        artifact, _ = tiny2l_artifact
        calls = {"chunk_container": 0, "pack_chunk": 0, "chunk_digest": 0}
        for name in calls:
            real = getattr(chunks, name)

            def counted(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(chunks, name, counted)
        artifact = unchunked(artifact)
        store = ArtifactStore(tmp_path)
        store.put(artifact)
        assert calls == {"chunk_container": 9, "pack_chunk": 9,
                         "chunk_digest": 9}
        calls.update(dict.fromkeys(calls, 0))
        store.put(unchunked(artifact))
        assert calls == {"chunk_container": 9, "pack_chunk": 0,
                         "chunk_digest": 9}
        calls.update(dict.fromkeys(calls, 0))
        store.put(artifact)
        assert calls == {"chunk_container": 0, "pack_chunk": 0,
                         "chunk_digest": 0}


class TestHealOnPut:
    """An existing blob counts as deduped only when its sha256 matches
    its name; a corrupt one is rewritten."""

    @pytest.mark.parametrize("previous", [True, False],
                             ids=["re-put", "no-previous-manifest"])
    def test_truncated_blob_is_rewritten(self, tmp_path, tiny2l_artifact,
                                         previous):
        artifact, _ = tiny2l_artifact
        store = ArtifactStore(tmp_path)
        store.put(artifact)
        ref, = [ref for ref in store.manifest(artifact.gpu_name,
                                              artifact.model_name).chunks
                if ref.name == "graph[4].head"]
        blob = tmp_path / "chunks" / ref.digest
        blob.write_bytes(blob.read_bytes()[:-7])
        if not previous:
            _manifest_file(store).unlink()
        store = ArtifactStore(tmp_path)
        store.put(artifact)
        assert (store.chunks_written, store.chunks_deduped) == (1, 8)
        assert store.get_lazy(artifact.gpu_name, artifact.model_name) \
            .to_payload() == artifact.to_payload()
