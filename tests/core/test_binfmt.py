"""Binary artifact format tests."""

import json

import numpy as np
import pytest

from repro.core.binfmt import LazyArtifact, save_binary
from repro.core.validation import validate_restoration
from repro.errors import ArtifactError

from tests.conftest import tiny_cost_model


class TestBinaryRoundTrip:
    def test_round_trip_equals_json(self, tmp_path, tiny2l_artifact):
        import json
        artifact, _ = tiny2l_artifact
        path = tmp_path / "tiny.medusa.npz"
        save_binary(artifact, path)
        loaded = LazyArtifact(path)
        # Semantic equality (graph insertion order may differ).
        assert json.loads(loaded.to_json()) == json.loads(artifact.to_json())

    def test_round_trip_restores_correctly(self, tmp_path, tiny4l_artifact):
        artifact, _ = tiny4l_artifact
        path = tmp_path / "tiny4l.medusa.npz"
        save_binary(artifact, path)
        loaded = LazyArtifact(path)
        report = validate_restoration("Tiny-4L", loaded, batches=[1, 8],
                                      seed=61, cost_model=tiny_cost_model())
        assert report.passed

    def test_binary_smaller_than_json(self, tmp_path, tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        json_size = artifact.save_json(tmp_path / "a.json")
        binary_size = save_binary(artifact, tmp_path / "a.npz")
        assert binary_size < json_size

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ArtifactError):
            LazyArtifact(tmp_path / "nope.npz")

    def test_garbage_file_raises(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"not an npz")
        with pytest.raises(ArtifactError):
            LazyArtifact(path)


def _rewritten(tmp_path, artifact, edit):
    """A saved artifact whose npz members went through ``edit``."""
    path = tmp_path / "source.npz"
    save_binary(artifact, path)
    with np.load(path) as data:
        members = {name: data[name] for name in data.files}
    edit(members)
    out = tmp_path / "edited.npz"
    with open(out, "wb") as handle:
        np.savez_compressed(handle, **members)
    return out


class TestStaleArtifactsRejected:
    """Opening an ``.npz`` checks its version and metadata."""

    def test_unknown_format_version_raises(self, tmp_path, tiny2l_artifact):
        artifact, _ = tiny2l_artifact

        def bump_version(members):
            meta = json.loads(str(members["metadata"][0]))
            meta["format_version"] = 999
            members["metadata"] = np.array([json.dumps(meta)])

        with pytest.raises(ArtifactError, match="format version 999"):
            LazyArtifact(_rewritten(tmp_path, artifact, bump_version))

    def test_missing_metadata_raises(self, tmp_path, tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        path = _rewritten(tmp_path, artifact,
                          lambda members: members.pop("metadata"))
        with pytest.raises(ArtifactError, match="no metadata member"):
            LazyArtifact(path)

    @pytest.mark.parametrize("metadata", [
        np.array(["{not json"]),
        np.array(["[1, 2]"]),
        np.array([], dtype="<U4"),
    ], ids=["not-json", "not-an-object", "empty"])
    def test_corrupt_metadata_raises(self, tmp_path, tiny2l_artifact,
                                     metadata):
        artifact, _ = tiny2l_artifact

        def corrupt(members):
            members["metadata"] = metadata

        with pytest.raises(ArtifactError, match="corrupt metadata"):
            LazyArtifact(_rewritten(tmp_path, artifact, corrupt))


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
        path = tmp_path / "a.npz"
        save_binary(artifact, path)
        store = ArtifactStore(tmp_path / "store", lint_on_load=True)
        store.put(artifact)
        assert calls == {"pack_artifact": 1, "to_payload": 0}
        # Lint and restore read the tables of every input kind.
        store.get(artifact.gpu_name, artifact.model_name)
        for target in (artifact, binfmt.LazyArtifact(path)):
            assert validate_restoration("Tiny-2L", target, batches=[1],
                                        seed=4,
                                        cost_model=tiny_cost_model()).passed
        assert calls == {"pack_artifact": 1, "to_payload": 0}
        assert not hasattr(binfmt, "artifact_arrays")


class TestTableChecks:
    """Every table is checked once where it is built: a well-formed
    ``.npy`` member of the wrong dtype, shape or length is an
    ``ArtifactError``, never a crash inside lint or the restorer."""

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
        ("pools", lambda a: a.astype(bool), "distinct strings"),
        ("tags", lambda a: a.astype("S"), "distinct strings"),
        ("kernel_names", lambda a: np.full_like(a, a[0]),
         "distinct strings"),
    ])
    def test_malformed_member_raises(self, tmp_path, tiny2l_artifact,
                                     member, corrupt, message):
        from repro.core.binfmt import LazyArtifact
        artifact, _ = tiny2l_artifact

        def rewrite(members):
            members[member] = corrupt(members[member])

        lazy = LazyArtifact(_rewritten(tmp_path, artifact, rewrite))
        with pytest.raises(ArtifactError, match=message):
            lazy.replay_table()
            for batch in lazy.batches:
                lazy.graph_table(batch)
