"""Binary artifact format tests."""

import json

import numpy as np
import pytest

from repro.analysis import lint_artifact
from repro.core.binfmt import save_binary
from repro.core.chunks import open_binary
from repro.core.validation import validate_restoration
from repro.errors import ArtifactError

from tests.conftest import (
    rewrite_binary,
    rewrite_manifest,
    tiny_cost_model,
    unchunked,
)


class TestBinaryRoundTrip:
    def test_round_trip_equals_json(self, tmp_path, tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        path = tmp_path / "tiny.medusa"
        save_binary(artifact, path)
        loaded = open_binary(path)
        # Semantic equality (graph insertion order may differ).
        assert json.loads(loaded.to_json()) == json.loads(artifact.to_json())

    def test_round_trip_restores_correctly(self, tmp_path, tiny4l_artifact):
        artifact, _ = tiny4l_artifact
        path = tmp_path / "tiny4l.medusa"
        save_binary(artifact, path)
        loaded = open_binary(path)
        report = validate_restoration("Tiny-4L", loaded, batches=[1, 8],
                                      seed=61, cost_model=tiny_cost_model())
        assert report.passed

    def test_binary_smaller_than_json(self, tmp_path, tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        json_size = artifact.save_json(tmp_path / "a.json")
        binary_size = save_binary(artifact, tmp_path / "a.medusa")
        assert binary_size < json_size

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ArtifactError, match="no readable binary"):
            open_binary(tmp_path / "nope.medusa")

    def test_garbage_file_raises(self, tmp_path):
        path = tmp_path / "bad.medusa"
        path.write_bytes(b"not an artifact")
        with pytest.raises(ArtifactError, match="bad magic"):
            open_binary(path)


def _rewritten(tmp_path, artifact, members=None, metadata=None):
    """A saved artifact with its chunk members or metadata edited (see
    :func:`tests.conftest.rewrite_binary`)."""
    path = tmp_path / "source.medusa"
    save_binary(artifact, path)
    return rewrite_binary(path, tmp_path / "edited.medusa",
                          members=members, metadata=metadata)


class TestStaleArtifactsRejected:
    """Opening a binary file checks its version and metadata."""

    def test_unknown_format_version_raises(self, tmp_path, tiny2l_artifact):
        artifact, _ = tiny2l_artifact

        def bump_version(meta):
            meta["format_version"] = 999

        with pytest.raises(ArtifactError, match="format version 999"):
            open_binary(_rewritten(tmp_path, artifact,
                                   metadata=bump_version))

    def test_missing_metadata_raises(self, tmp_path, tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        path = rewrite_manifest(_rewritten(tmp_path, artifact),
                                tmp_path / "bare.medusa",
                                lambda payload: payload.pop("metadata"))
        with pytest.raises(ArtifactError, match="no metadata"):
            open_binary(path)

    @pytest.mark.parametrize("metadata", ["{not json", "[1, 2]", ""],
                             ids=["not-json", "not-an-object", "empty"])
    def test_corrupt_metadata_raises(self, tmp_path, tiny2l_artifact,
                                     metadata):
        artifact, _ = tiny2l_artifact

        def corrupt(payload):
            payload["metadata"] = metadata

        path = rewrite_manifest(_rewritten(tmp_path, artifact),
                                tmp_path / "corrupt.medusa", corrupt)
        with pytest.raises(ArtifactError, match="corrupt metadata"):
            open_binary(path)

    def test_two_entry_graph_meta_row_raises(self, tmp_path,
                                             tiny2l_artifact):
        """A ``graph_meta`` row is ``[param_bytes, num_tokens,
        num_nodes]``; the two-entry rows of the first binary format are
        refused, not counted from the graph's arrays."""
        artifact, _ = tiny2l_artifact

        def two_entries(meta):
            meta["graph_meta"]["4"] = meta["graph_meta"]["4"][:2]

        with pytest.raises(ArtifactError,
                           match=r"graph_meta\['4'\] must have 3 entries"):
            open_binary(_rewritten(tmp_path, artifact, metadata=two_entries))


class TestPackOnce:
    """The offline output is the packed artifact: nothing downstream packs
    it again or unpacks it into a JSON payload."""

    def test_materialization_packs_once_and_never_unpacks(self, tmp_path,
                                                          monkeypatch):
        from repro.core import binfmt, offline
        from repro.core.store import ArtifactStore
        from repro.simgpu.process import ExecutionMode

        calls = {"pack_artifact": 0, "to_payload": 0}
        real_pack = binfmt.pack_artifact
        real_to_payload = binfmt.LazyArtifact.to_payload

        def counting_pack(*args, **kwargs):
            calls["pack_artifact"] += 1
            return real_pack(*args, **kwargs)

        def counting_to_payload(self):
            calls["to_payload"] += 1
            return real_to_payload(self)

        monkeypatch.setattr(binfmt, "pack_artifact", counting_pack)
        monkeypatch.setattr(offline, "pack_artifact", counting_pack)
        monkeypatch.setattr(binfmt.LazyArtifact, "to_payload",
                            counting_to_payload)
        artifact, _ = offline.run_offline("Tiny-2L", seed=3,
                                          mode=ExecutionMode.COMPUTE,
                                          cost_model=tiny_cost_model())
        path = tmp_path / "a.medusa"
        save_binary(artifact, path)
        store = ArtifactStore(tmp_path / "store")
        store.put(artifact)
        assert calls == {"pack_artifact": 1, "to_payload": 0}
        # Lint and restore read the tables of every input kind.
        assert not lint_artifact(
            store.get(artifact.gpu_name, artifact.model_name)).errors
        for target in (artifact, open_binary(path)):
            assert validate_restoration("Tiny-2L", target, batches=[1],
                                        seed=4,
                                        cost_model=tiny_cost_model()).passed
        assert calls == {"pack_artifact": 1, "to_payload": 0}
        assert not hasattr(binfmt, "artifact_arrays")


class TestTableChecks:
    """Every table is checked once where it is built: a well-formed
    ``.npy`` member of the wrong dtype, shape or length (in each chunk
    that holds part of it) is an ``ArtifactError``, never a crash inside
    lint or the restorer."""

    @pytest.mark.parametrize("member,corrupt,message", [
        ("g4_param_values", lambda a: a.astype(np.float32), "1-D column"),
        ("ev_kind", lambda a: a.reshape(1, -1), "1-D column"),
        ("ev_tag", lambda a: a[:-1], "unequal lengths"),
        ("ev_pool", lambda a: a + 50, "outside its"),
        ("g4_kernel", lambda a: a + 1000, "outside its"),
        ("g4_batchdim", lambda a: a[:-1], "inconsistent CSR"),
        ("g4_param_kinds", lambda a: a[:-1], "inconsistent CSR"),
        ("g4_param_offsets", lambda a: a[::-1].copy(), "inconsistent CSR"),
        ("g4_edges", lambda a: a.ravel(), "edge member"),
        ("g4_param_offsets", lambda a: a[:0], "need 27 offsets"),
        ("g4_param_sizes", lambda a: a.reshape(1, -1), "do not join"),
        ("pools", lambda a: a.astype(bool), "distinct strings"),
        ("tags", lambda a: a.astype("S"), "distinct strings"),
        ("kernel_names", lambda a: np.full_like(a, a[0]),
         "distinct strings"),
    ])
    def test_malformed_member_raises(self, tmp_path, tiny2l_artifact,
                                     member, corrupt, message):
        artifact, _ = tiny2l_artifact
        lazy = open_binary(_rewritten(tmp_path, artifact,
                                      members={member: corrupt}))
        with pytest.raises(ArtifactError, match=message):
            lazy.replay_table()
            for batch in lazy.batches:
                lazy.graph_table(batch)


class TestOneChunkSet:
    """The file and the store hold one encoding: each chunk is compressed
    at most once across a save and a put, and a re-save compresses only
    the chunks that changed."""

    @staticmethod
    def _packs(monkeypatch):
        from repro.core import chunks
        calls = []
        pack = chunks.pack_chunk
        monkeypatch.setattr(chunks, "pack_chunk",
                            lambda *args: calls.append(1) or pack(*args))
        return calls

    def test_save_then_put_compresses_each_chunk_once(
            self, tmp_path, tiny2l_artifact, monkeypatch):
        from repro.core.store import ArtifactStore
        artifact = unchunked(tiny2l_artifact[0])
        calls = self._packs(monkeypatch)
        save_binary(artifact, tmp_path / "a.medusa")
        store = ArtifactStore(tmp_path / "store")
        store.put(artifact)
        assert len(calls) == 9
        assert store.chunks_compressed == 0

    def test_resave_compresses_only_changed_chunks(
            self, tmp_path, tiny2l_artifact, monkeypatch):
        from tests.core.test_store import _with_changed_dump
        artifact = tiny2l_artifact[0]
        path = tmp_path / "a.medusa"
        save_binary(unchunked(artifact), path)
        first = path.read_bytes()
        calls = self._packs(monkeypatch)
        assert save_binary(unchunked(artifact), path) == len(first)
        assert (len(calls), path.read_bytes()) == (0, first)
        changed = _with_changed_dump(artifact)
        save_binary(changed, path)
        assert len(calls) == 1
        fresh = tmp_path / "fresh.medusa"
        save_binary(unchunked(changed), fresh)
        assert path.read_bytes() == fresh.read_bytes()

    def test_unreadable_file_at_the_path_reuses_nothing(
            self, tmp_path, tiny2l_artifact, monkeypatch):
        path = tmp_path / "a.medusa"
        save_binary(unchunked(tiny2l_artifact[0]), path)
        expected = path.read_bytes()
        path.write_bytes(expected[:len(expected) // 2])
        calls = self._packs(monkeypatch)
        save_binary(unchunked(tiny2l_artifact[0]), path)
        assert (len(calls), path.read_bytes()) == (9, expected)

    @pytest.mark.parametrize("source", ["file", "store"])
    def test_chunk_backed_artifact_saves_and_puts_its_own_blobs(
            self, tmp_path, tiny2l_artifact, monkeypatch, source):
        """A file or a store's artifact is written from its own manifest
        and blobs, byte-identically, without compressing anything."""
        from repro.core.store import ArtifactStore
        artifact = tiny2l_artifact[0]
        path = tmp_path / "a.medusa"
        save_binary(artifact, path)
        origin = ArtifactStore(tmp_path / "origin")
        manifest = origin.put(artifact).read_bytes()
        opened = open_binary(path) if source == "file" else \
            origin.get_lazy(artifact.gpu_name, artifact.model_name)
        calls = self._packs(monkeypatch)
        copy = ArtifactStore(tmp_path / "copy")
        assert copy.put(opened).read_bytes() == manifest
        assert save_binary(opened, tmp_path / "b.medusa") \
            == len(path.read_bytes())
        assert (tmp_path / "b.medusa").read_bytes() == path.read_bytes()
        assert (len(calls), copy.chunks_compressed, copy.chunks_written) \
            == (0, 0, 9)

    def test_put_of_a_file_checks_each_blob_digest(self, tmp_path,
                                                   tiny2l_artifact):
        from repro.core.store import ArtifactStore
        path = tmp_path / "a.medusa"
        save_binary(tiny2l_artifact[0], path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x01
        path.write_bytes(bytes(data))
        store = ArtifactStore(tmp_path / "store")
        with pytest.raises(ArtifactError,
                           match="failed content-hash verification"):
            store.put(open_binary(path))
        assert not store.has(tiny2l_artifact[0].gpu_name,
                             tiny2l_artifact[0].model_name)
