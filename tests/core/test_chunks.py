"""Chunk-granular artifact serialization (repro.core.chunks) and the
content-addressed chunk store paths built on it."""

from __future__ import annotations

import io
import json
import struct
import zlib

import numpy as np
import pytest

from repro.core.binfmt import save_binary
from repro.core.chunks import (
    KIND_GRAPH_HEAD,
    KIND_GRAPH_TAIL,
    ChunkManifest,
    ChunkedLazyArtifact,
    chunk_digest,
    chunk_model,
    graph_head_chunk_name,
    open_binary,
    pack_chunk,
    simulation_chunks,
    unpack_chunk,
)
from repro.core.store import ArtifactStore
from repro.errors import ArtifactError
from tests.conftest import replaced, rewrite_binary


@pytest.fixture(scope="module")
def tiny2l(tiny2l_artifact):
    artifact, _ = tiny2l_artifact
    return artifact


@pytest.fixture(scope="module")
def chunked(tiny2l):
    return chunk_model(tiny2l)


class TestPackFormat:
    def test_round_trip(self):
        members = {"a": np.arange(7, dtype=np.int64),
                   "b": np.linspace(0.0, 1.0, 5)}
        blob = pack_chunk(members)
        back = unpack_chunk(blob)
        assert set(back) == {"a", "b"}
        np.testing.assert_array_equal(back["a"], members["a"])
        np.testing.assert_array_equal(back["b"], members["b"])

    def test_pack_is_deterministic_regardless_of_insertion_order(self):
        a = {"x": np.ones(3), "y": np.zeros(2)}
        b = {"y": np.zeros(2), "x": np.ones(3)}
        assert pack_chunk(a) == pack_chunk(b)
        assert chunk_digest(pack_chunk(a)) == chunk_digest(pack_chunk(b))

    def test_corrupt_blob_is_rejected(self):
        blob = pack_chunk({"a": np.arange(3)})
        with pytest.raises(ArtifactError):
            unpack_chunk(b"XXXX" + blob[4:])


def _container(payloads):
    """A chunk blob from raw per-member payload bytes (pack_chunk's layout,
    without its np.save step), for handcrafted members."""
    raw = io.BytesIO()
    raw.write(b"MCHK\x01")
    for name, data in payloads.items():
        encoded = name.encode("utf-8")
        raw.write(struct.pack("<I", len(encoded)) + encoded)
        raw.write(struct.pack("<Q", len(data)) + data)
    return zlib.compress(raw.getvalue())


def _payloads(blob):
    """Split a chunk blob into ``{name: .npy payload bytes}``."""
    raw = zlib.decompress(blob)
    offset, out = 5, {}
    while offset < len(raw):
        (name_len,) = struct.unpack_from("<I", raw, offset)
        name = raw[offset + 4:offset + 4 + name_len].decode("utf-8")
        offset += 4 + name_len
        (data_len,) = struct.unpack_from("<Q", raw, offset)
        out[name] = raw[offset + 8:offset + 8 + data_len]
        offset += 8 + data_len
    return out


def _npy(array, allow_pickle=False):
    buffer = io.BytesIO()
    np.save(buffer, array, allow_pickle=allow_pickle)
    return buffer.getvalue()


def _assert_decodes_like_np_load(blob):
    decoded = unpack_chunk(blob)
    payloads = _payloads(blob)
    assert list(decoded) == list(payloads)
    for name, data in payloads.items():
        expected = np.load(io.BytesIO(data), allow_pickle=False)
        actual = decoded[name]
        assert actual.dtype == expected.dtype, name
        assert actual.shape == expected.shape, name
        assert actual.strides == expected.strides, name
        assert actual.tobytes() == expected.tobytes(), name
        assert actual.flags.writeable, name


class TestMemberDecoder:
    """``unpack_chunk`` decodes ``.npy`` members without ``np.load``."""

    @pytest.mark.parametrize("array", [
        np.arange(7, dtype=np.int64),
        np.linspace(0.0, 1.0, 5),
        np.array([np.nan, -0.0, np.inf]),
        np.arange(6, dtype=np.float32).reshape(2, 3),
        np.arange(12, dtype=np.int32).reshape(3, 4).T,        # Fortran order
        np.arange(3, dtype=">i4"),
        np.array([True, False]),
        np.arange(5, dtype=np.int8),
        np.array(["", "ab", "naïve"]),
        np.array([b"x", b"yz"]),
        np.array(5),
        np.zeros(0),
        np.zeros((0, 4), dtype=np.int64),
        np.array([], dtype=str),
    ], ids=lambda a: f"{a.dtype.str}{a.shape}")
    def test_round_trips_like_np_load(self, array):
        blob = pack_chunk({"m": array})
        _assert_decodes_like_np_load(blob)
        np.testing.assert_array_equal(unpack_chunk(blob)["m"], array)

    def test_every_chunk_of_a_model_decodes_like_np_load(self, chunked):
        _manifest, blobs = chunked
        for blob in blobs.values():
            _assert_decodes_like_np_load(blob)

    def test_result_is_a_private_copy(self):
        blob = pack_chunk({"a": np.arange(4)})
        first = unpack_chunk(blob)["a"]
        first[0] = 99
        assert unpack_chunk(blob)["a"][0] == 0

    def test_truncated_payload_is_rejected(self):
        data = _npy(np.arange(8, dtype=np.int64))
        with pytest.raises(ArtifactError, match="header declares"):
            unpack_chunk(_container({"a": data[:-8]}))
        with pytest.raises(ArtifactError, match="truncated"):
            unpack_chunk(_container({"a": data[:9]}))

    def test_member_running_past_the_blob_is_rejected(self):
        raw = zlib.decompress(pack_chunk({"a": np.arange(8)}))
        with pytest.raises(ArtifactError):
            unpack_chunk(zlib.compress(raw[:-1]))
        with pytest.raises(ArtifactError):
            unpack_chunk(zlib.compress(raw + b"\x01\x00"))

    def test_bad_member_magic_is_rejected(self):
        data = _npy(np.arange(3))
        with pytest.raises(ArtifactError, match="not a .npy payload"):
            unpack_chunk(_container({"a": b"XNUMPY" + data[6:]}))

    def test_unknown_npy_version_is_rejected(self):
        data = _npy(np.arange(3))
        with pytest.raises(ArtifactError, match="version"):
            unpack_chunk(_container({"a": data[:6] + b"\x03\x00"
                                     + data[8:]}))

    def test_object_dtype_is_rejected(self):
        data = _npy(np.array([{"x": 1}], dtype=object), allow_pickle=True)
        with pytest.raises(ArtifactError, match="object dtype"):
            unpack_chunk(_container({"a": data}))

    def test_malformed_header_is_rejected(self):
        data = _npy(np.arange(3))
        header_len = int.from_bytes(data[8:10], "little")
        garbled = data[:10] + b"{" * header_len + data[10 + header_len:]
        with pytest.raises(ArtifactError, match="header"):
            unpack_chunk(_container({"a": garbled}))


_SHORT = _npy(np.arange(3))
_LONG = _npy(np.arange(8, dtype=np.int64))

#: Malformed ``.npy`` members and the diagnostic each must raise, in a
#: bare chunk and in a chunk of a binary file alike.
_MALFORMED_MEMBERS = {
    "bad-magic": (b"XNUMPY" + _SHORT[6:], "not a .npy payload"),
    "truncated-data": (_LONG[:-8], "header declares"),
    "truncated-header": (_LONG[:9], "truncated"),
    "object-dtype": (_npy(np.array([{"x": 1}], dtype=object),
                          allow_pickle=True), "object dtype"),
    "unknown-version": (_SHORT[:6] + b"\x03\x00" + _SHORT[8:], "version"),
}


class TestFileMemberDecoder:
    """The members of a binary file's chunks go through the chunk
    codec's ``.npy`` decoder."""

    @pytest.fixture(scope="class")
    def tiny_file(self, tiny2l, tmp_path_factory):
        path = tmp_path_factory.mktemp("decoder") / "tiny.medusa"
        save_binary(tiny2l, path)
        return path

    @pytest.mark.parametrize("case", sorted(_MALFORMED_MEMBERS))
    def test_malformed_member_fails_alike(self, case, tiny_file, tmp_path):
        payload, message = _MALFORMED_MEMBERS[case]
        with pytest.raises(ArtifactError, match=message):
            unpack_chunk(_container({"a": payload}))
        bad = open_binary(rewrite_binary(
            tiny_file, tmp_path / "bad.medusa",
            members={"ev_kind": lambda _column: payload}))
        with pytest.raises(ArtifactError, match=message):
            bad.reader["ev_kind"]

    def test_missing_member_is_a_key_error(self, tiny_file):
        reader = open_binary(tiny_file).reader
        assert reader["ev_kind"].dtype == np.int8
        with pytest.raises(KeyError):
            reader["b"]

    def test_every_member_of_a_model_decodes_like_np_load(self, tiny2l,
                                                         tiny_file):
        members = open_binary(tiny_file).members()
        expected = tiny2l.members()
        assert list(members) == list(expected)
        for name, actual in members.items():
            assert actual.dtype == expected[name].dtype, name
            assert actual.shape == expected[name].shape, name
            assert actual.tobytes() == expected[name].tobytes(), name
            assert actual.flags.writeable, name

    def test_malformed_bulk_member_fails_on_first_use(self, tiny_file,
                                                      tmp_path):
        bad = rewrite_binary(tiny_file, tmp_path / "bad.medusa",
                             members={"ev_kind": lambda column:
                                      _npy(column)[:-1]})
        artifact = open_binary(bad)          # the manifest is intact
        with pytest.raises(ArtifactError, match="ev_kind"):
            artifact.replay_table()


class TestChunkModel:
    def test_manifest_is_deterministic(self, tiny2l):
        m1, blobs1 = chunk_model(tiny2l)
        m2, blobs2 = chunk_model(tiny2l)
        assert m1.to_json() == m2.to_json()
        assert blobs1 == blobs2

    def test_manifest_json_round_trip(self, chunked):
        manifest, _ = chunked
        back = ChunkManifest.from_json(manifest.to_json())
        assert back.to_json() == manifest.to_json()
        assert back.batches == manifest.batches

    @pytest.mark.parametrize("digest", ["../index.json", "ab" * 31, 7],
                             ids=["path", "short", "not-a-string"])
    def test_manifest_digest_must_be_a_sha256(self, chunked, digest):
        """A digest names a file in the store's blob directory, so a
        manifest whose digest is anything but a sha256 is malformed."""
        manifest, _ = chunked
        payload = json.loads(manifest.to_json())
        payload["chunks"][0]["digest"] = digest
        with pytest.raises(ArtifactError, match="is not a sha256"):
            ChunkManifest.from_json(json.dumps(payload))

    def test_every_graph_has_head_and_tail(self, tiny2l, chunked):
        manifest, _ = chunked
        kinds = {}
        for ref in manifest.chunks:
            kinds.setdefault(ref.kind, []).append(ref)
        batches = tiny2l.batches
        assert sorted(r.batch for r in kinds[KIND_GRAPH_HEAD]) == batches
        assert sorted(r.batch for r in kinds[KIND_GRAPH_TAIL]) == batches

    def test_foreground_excludes_only_nonlargest_tails(self, chunked):
        manifest, _ = chunked
        foreground = manifest.foreground_chunks()
        background = [ref for ref in manifest.chunks
                      if ref not in foreground]
        largest = max(manifest.batches)
        assert background
        for ref in background:
            assert ref.kind == KIND_GRAPH_TAIL and ref.batch != largest
        assert manifest.foreground_bytes < manifest.total_bytes

    def test_materialize_is_byte_identical_to_monolithic(self, tiny2l,
                                                         chunked,
                                                         tmp_path):
        manifest, blobs = chunked
        path = tmp_path / "mono.medusa"
        save_binary(tiny2l, path)
        mono = open_binary(path)
        lazy = ChunkedLazyArtifact(manifest,
                                   lambda ref: blobs[ref.digest])
        assert lazy.to_json() == mono.to_json()

    def test_simulation_chunks_mirror_manifest(self, chunked):
        manifest, _ = chunked
        metas = simulation_chunks(manifest)
        assert [m.name for m in metas] == [r.name for r in manifest.chunks]
        assert sum(m.nbytes for m in metas) == manifest.total_bytes
        assert sum(m.nbytes for m in metas if m.foreground) \
            == manifest.foreground_bytes


class TestChunkedLazyArtifact:
    def test_first_layer_table_loads_only_head_chunks(self, chunked):
        manifest, blobs = chunked
        loaded = set()

        def loader(ref):
            loaded.add(ref.name)
            return blobs[ref.digest]

        lazy = ChunkedLazyArtifact(manifest, loader)
        batch = max(manifest.batches)
        table = lazy.first_layer_table(batch)
        assert table.num_nodes > 0
        assert graph_head_chunk_name(batch) in loaded
        assert not any(ref.kind == KIND_GRAPH_TAIL
                       for ref in manifest.chunks if ref.name in loaded)

    def test_graph_table_concatenates_head_and_tail(self, tiny2l, chunked):
        manifest, blobs = chunked
        lazy = ChunkedLazyArtifact(manifest,
                                   lambda ref: blobs[ref.digest])
        for batch in manifest.batches:
            table = lazy.graph_table(batch)
            assert table.num_nodes == tiny2l.graph_nodes(batch)

    def test_permanent_contents_come_from_dumps_chunk(self, tiny2l,
                                                      chunked):
        manifest, blobs = chunked
        lazy = ChunkedLazyArtifact(manifest,
                                   lambda ref: blobs[ref.digest])
        assert set(lazy.permanent_contents) \
            == set(tiny2l.permanent_contents)


class TestStoreChunking:
    def test_sibling_model_dedups_every_chunk(self, tiny2l, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put(tiny2l)
        sibling = replaced(tiny2l, model_name="Tiny-2L-twin")
        store.put(sibling)
        stats = store.stats()
        assert stats["total_chunks"] == 2 * stats["unique_chunks"]
        assert stats["dedup_ratio"] == pytest.approx(2.0)
        assert store.chunks_deduped > 0
        # Both identities read back whole, independently and identically.
        a = store.get(tiny2l.gpu_name, tiny2l.model_name).to_payload()
        b = store.get(sibling.gpu_name, sibling.model_name).to_payload()
        assert a["model_name"] != b["model_name"]
        assert a["graphs"].keys() == b["graphs"].keys()

    def test_stats_shape_is_json_serializable(self, tiny2l, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put(tiny2l)
        stats = store.stats()
        encoded = json.loads(json.dumps(stats))
        key = f"{tiny2l.gpu_name}::{tiny2l.model_name}"
        assert encoded["models"][key]["chunks"] \
            == len(store.manifest(tiny2l.gpu_name,
                                  tiny2l.model_name).chunks)


class TestChunkedColdStart:
    def test_chunked_plan_cold_start_matches_pipelined_graphs(
            self, tiny2l, tmp_path):
        from repro.core.online import prepare_medusa_cold_start
        from repro.simgpu.process import ExecutionMode
        from tests.conftest import tiny_cost_model

        store = ArtifactStore(tmp_path / "store")
        store.put(tiny2l)
        lazy = store.get_lazy(tiny2l.gpu_name, tiny2l.model_name)
        engine, restorer = prepare_medusa_cold_start(
            "Tiny-2L", lazy, mode=ExecutionMode.COMPUTE,
            cost_model=tiny_cost_model())
        report = engine.cold_start(restorer=restorer)
        assert report.timeline.plan == "medusa-chunked"

        path = tmp_path / "mono.medusa"
        save_binary(tiny2l, path)
        engine2, restorer2 = prepare_medusa_cold_start(
            "Tiny-2L", open_binary(path), mode=ExecutionMode.COMPUTE,
            cost_model=tiny_cost_model())
        baseline = engine2.cold_start(restorer=restorer2)
        assert baseline.timeline.plan == "medusa-pipelined"
        assert set(engine.capture_artifacts.execs) \
            == set(engine2.capture_artifacts.execs)

    def test_foreground_fetch_is_smaller_than_monolithic(self, tiny2l,
                                                         tmp_path):
        from repro.core.online import prepare_medusa_cold_start
        from repro.engine.loadplan import (
            FETCH_ARTIFACT,
            FETCH_CHUNK_PATTERN,
        )
        from repro.simgpu.process import ExecutionMode
        from tests.conftest import tiny_cost_model

        store = ArtifactStore(tmp_path / "store")
        store.put(tiny2l)
        lazy = store.get_lazy(tiny2l.gpu_name, tiny2l.model_name)
        engine, restorer = prepare_medusa_cold_start(
            "Tiny-2L", lazy, mode=ExecutionMode.TIMING,
            cost_model=tiny_cost_model())
        chunked = engine.cold_start(restorer=restorer).timeline

        path = tmp_path / "mono.medusa"
        save_binary(tiny2l, path)
        engine2, restorer2 = prepare_medusa_cold_start(
            "Tiny-2L", open_binary(path), mode=ExecutionMode.TIMING,
            cost_model=tiny_cost_model())
        mono = engine2.cold_start(restorer=restorer2).timeline

        fg_fetch = sum(
            s.duration for s in chunked.stages
            if FETCH_CHUNK_PATTERN.match(s.name) and not s.background)
        bg_fetch = sum(
            s.duration for s in chunked.stages
            if FETCH_CHUNK_PATTERN.match(s.name) and s.background)
        mono_fetch = mono.stage(FETCH_ARTIFACT).duration
        assert fg_fetch < mono_fetch
        # The whole stream still moves the same simulated bytes.
        assert fg_fetch + bg_fetch == pytest.approx(mono_fetch)
