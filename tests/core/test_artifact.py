"""Artifact export and binary read-back integrity tests."""

import numpy as np
import pytest

from repro.core.artifact import ARTIFACT_FORMAT_VERSION, TriggerPlan
from repro.core.binfmt import LazyArtifact, save_binary
from repro.core.chunks import open_binary
from repro.errors import ArtifactError
from tests.conftest import (artifact_payload, pack_payload, resaved,
                            rewrite_binary)


def small_payload() -> dict:
    return artifact_payload(
        model_name="Tiny-2L", gpu_name="Tiny-GPU", kv_bytes=1 << 20,
        kv_num_blocks=8, kv_layer_stride=4096, kv_alloc_index=3,
        structure_prefix=[[256, "weight"], [512, "weight"]],
        replay_events=[
            {"kind": "alloc", "alloc_index": 2, "size": 256, "tag": "act",
             "pool": "graph"},
            {"kind": "free", "alloc_index": 2, "pooled": True},
            {"kind": "empty_cache"},
        ],
        kernel_libraries={"k1": "libtorch_sim"},
        permanent_contents={"7": [[1.0]]},
        graphs={"1": {
            "batch_size": 1, "param_bytes": 1024, "num_tokens": 1,
            "edges": [],
            "nodes": [{
                "kernel_name": "k1", "param_sizes": [8, 4],
                "launch_dims": {"batch_size": 1},
                "param_restores": [
                    {"kind": "ptr", "alloc_index": 2, "offset": 16},
                    {"kind": "const", "value": 42}],
            }],
        }},
        first_layer_nodes=1,
        trigger_plans=[{"kernel_name": "k1", "node_ref": [1, 0]}],
        stats={"total_nodes": 1.0})


def small_artifact() -> LazyArtifact:
    return pack_payload(small_payload())


def saved_and_opened(artifact, tmp_path) -> LazyArtifact:
    path = tmp_path / "artifact.medusa"
    save_binary(artifact, path)
    return open_binary(path)


class TestRoundTrip:
    def test_binary_round_trip_preserves_everything(self, tmp_path):
        artifact = small_artifact()
        loaded = saved_and_opened(artifact, tmp_path)
        assert loaded.model_name == artifact.model_name
        assert loaded.kv_bytes == artifact.kv_bytes
        assert loaded.structure_prefix == artifact.structure_prefix
        assert loaded.to_payload()["replay_events"] == \
            artifact.to_payload()["replay_events"]
        assert loaded.kernel_libraries == artifact.kernel_libraries
        assert loaded.trigger_plans == artifact.trigger_plans
        node = loaded.to_payload()["graphs"]["1"]["nodes"][0]
        assert node["param_restores"] == \
            artifact.to_payload()["graphs"]["1"]["nodes"][0]["param_restores"]
        assert node["launch_dims"] == {"batch_size": 1}

    def test_export_writes_every_key(self):
        """The export writes every key of every record, in the schema's
        order."""
        payload = small_artifact().to_payload()
        assert list(payload) == list(small_payload())
        assert payload["replay_events"] == [
            {"kind": "alloc", "alloc_index": 2, "size": 256, "tag": "act",
             "pooled": False, "pool": "graph"},
            {"kind": "free", "alloc_index": 2, "size": 0, "tag": "",
             "pooled": True, "pool": "default"},
            {"kind": "empty_cache", "alloc_index": -1, "size": 0, "tag": "",
             "pooled": False, "pool": "default"},
        ]
        assert payload["graphs"]["1"]["nodes"][0]["param_restores"] == [
            {"kind": "ptr", "value": 0, "alloc_index": 2, "offset": 16},
            {"kind": "const", "value": 42, "alloc_index": -1, "offset": 0},
        ]
        assert payload["trigger_plans"] == small_payload()["trigger_plans"]
        assert small_artifact().trigger_plans == [TriggerPlan("k1", (1, 0))]

    def test_exported_payload_is_the_callers_own(self):
        artifact = small_artifact()
        artifact.to_payload()["kernel_libraries"]["k1"] = "libother"
        assert artifact.kernel_libraries == {"k1": "libtorch_sim"}

    def test_unknown_restore_kind_raises(self, tmp_path):
        """A parameter kind code that is neither constant nor pointer is
        refused where the graph table is built, not restored as a
        constant."""
        def unknown(members, metadata):
            members["g1_param_kinds"][-1] = 2
        path = resaved(small_artifact(), tmp_path / "artifact.medusa",
                       unknown)
        with pytest.raises(ArtifactError,
                           match="graph 1 has a parameter restore of kind "
                                 "code 2; expected 0 .const. or 1 .ptr."):
            open_binary(path).graph_table(1)

    def test_permanent_payload_round_trips(self, tmp_path):
        loaded = saved_and_opened(small_artifact(), tmp_path)
        np.testing.assert_array_equal(loaded.permanent_payload(7),
                                      np.array([[1.0]]))

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ArtifactError):
            open_binary(tmp_path / "nope.medusa")

    @pytest.mark.parametrize("text", ["{not json", "[1, 2, 3]", None],
                             ids=["broken-json", "json-list", "export"])
    def test_json_file_is_refused_as_export_only(self, tmp_path, text):
        """A JSON file, even an artifact's own export, is no input."""
        path = tmp_path / "artifact.json"
        if text is None:
            small_artifact().save_json(path)
        else:
            path.write_text(text)
        with pytest.raises(ArtifactError, match="JSON is export-only"):
            open_binary(path)

    @pytest.mark.parametrize("version", [0, 1, None],
                             ids=["v0", "v1", "missing"])
    def test_other_version_rejected_naming_both_versions(self, tmp_path,
                                                          version):
        """A stale artifact fails with a message naming both versions,
        not a cryptic KeyError from a field it predates."""
        def stale(meta):
            if version is None:
                del meta["format_version"]
            else:
                meta["format_version"] = version
            del meta["trigger_plans"]       # a field v1 predates
        path = tmp_path / "artifact.medusa"
        save_binary(small_artifact(), path)
        rewrite_binary(path, path, metadata=stale)
        with pytest.raises(ArtifactError) as excinfo:
            open_binary(path)
        message = str(excinfo.value)
        assert f"format version {version!r}" in message
        assert f"reads version {ARTIFACT_FORMAT_VERSION}" in message
        assert "KeyError" not in message


class TestAccessors:
    """A hand-built artifact's queries are answered by its packed
    tables."""

    def test_total_nodes(self):
        assert small_artifact().total_nodes == 1

    def test_unknown_batch_raises(self):
        with pytest.raises(ArtifactError):
            small_artifact().graph_table(512)

    def test_unknown_permanent_payload_raises(self):
        with pytest.raises(ArtifactError):
            small_artifact().permanent_payload(99)
