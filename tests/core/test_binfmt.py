"""Binary artifact format tests."""

import json

import numpy as np
import pytest

from repro.core.binfmt import load_binary, save_binary
from repro.core.validation import validate_restoration
from repro.errors import ArtifactError

from tests.conftest import tiny_cost_model


class TestBinaryRoundTrip:
    def test_round_trip_equals_json(self, tmp_path, tiny2l_artifact):
        import json
        artifact, _ = tiny2l_artifact
        path = tmp_path / "tiny.medusa.npz"
        save_binary(artifact, path)
        loaded = load_binary(path)
        # Semantic equality (graph insertion order may differ).
        assert json.loads(loaded.to_json()) == json.loads(artifact.to_json())

    def test_round_trip_restores_correctly(self, tmp_path, tiny4l_artifact):
        artifact, _ = tiny4l_artifact
        path = tmp_path / "tiny4l.medusa.npz"
        save_binary(artifact, path)
        loaded = load_binary(path)
        report = validate_restoration("Tiny-4L", loaded, batches=[1, 8],
                                      seed=61, cost_model=tiny_cost_model())
        assert report.passed

    def test_binary_smaller_than_json(self, tmp_path, tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        json_size = artifact.save(tmp_path / "a.json")
        binary_size = save_binary(artifact, tmp_path / "a.npz")
        assert binary_size < json_size

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ArtifactError):
            load_binary(tmp_path / "nope.npz")

    def test_garbage_file_raises(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"not an npz")
        with pytest.raises(ArtifactError):
            load_binary(path)


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
    """``load_binary`` shares ``LazyArtifact``'s version and metadata check."""

    def test_unknown_format_version_raises(self, tmp_path, tiny2l_artifact):
        artifact, _ = tiny2l_artifact

        def bump_version(members):
            meta = json.loads(str(members["metadata"][0]))
            meta["format_version"] = 999
            members["metadata"] = np.array([json.dumps(meta)])

        with pytest.raises(ArtifactError, match="format version 999"):
            load_binary(_rewritten(tmp_path, artifact, bump_version))

    def test_missing_metadata_raises(self, tmp_path, tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        path = _rewritten(tmp_path, artifact,
                          lambda members: members.pop("metadata"))
        with pytest.raises(ArtifactError, match="no metadata member"):
            load_binary(path)
