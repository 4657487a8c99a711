"""JSON artifact import/export and integrity tests."""

import json

import numpy as np
import pytest

from repro.core.artifact import ARTIFACT_FORMAT_VERSION, TriggerPlan
from repro.core.binfmt import LazyArtifact
from repro.errors import ArtifactError
from tests.conftest import artifact_payload


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
    return LazyArtifact.from_payload(small_payload())


class TestRoundTrip:
    def test_json_round_trip_preserves_everything(self, tmp_path):
        artifact = small_artifact()
        path = tmp_path / "artifact.json"
        size = artifact.save_json(path)
        assert size > 0
        loaded = LazyArtifact.load_json(path)
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

    def test_export_is_the_payload_with_defaults_filled(self):
        """A record's missing optional keys take the documented defaults,
        and the export writes every key."""
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

    def test_unknown_restore_kind_raises(self):
        payload = small_payload()
        payload["graphs"]["1"]["nodes"][0]["param_restores"][1]["kind"] = "x"
        with pytest.raises(ArtifactError,
                           match="graph 1 has a parameter restore of kind"):
            LazyArtifact.from_payload(payload)

    def test_permanent_payload_round_trips(self, tmp_path):
        artifact = small_artifact()
        path = tmp_path / "artifact.json"
        artifact.save_json(path)
        loaded = LazyArtifact.load_json(path)
        np.testing.assert_array_equal(loaded.permanent_payload(7),
                                      np.array([[1.0]]))

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ArtifactError):
            LazyArtifact.load_json(tmp_path / "nope.json")

    def test_corrupt_json_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ArtifactError):
            LazyArtifact.load_json(path)

    def test_version_mismatch_raises(self):
        text = small_artifact().to_json().replace(
            f'"format_version": {ARTIFACT_FORMAT_VERSION}',
            '"format_version": 0')
        with pytest.raises(ArtifactError):
            LazyArtifact.from_payload(json.loads(text))

    def test_v1_payload_rejected_naming_both_versions(self, tmp_path):
        """A stale v1 artifact fails with a message naming both versions,
        not a cryptic KeyError from a missing v2 field."""
        payload = small_payload()
        payload["format_version"] = 1
        del payload["trigger_plans"]        # field v1 predates
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ArtifactError) as excinfo:
            LazyArtifact.load_json(path)
        message = str(excinfo.value)
        assert "1" in message
        assert str(ARTIFACT_FORMAT_VERSION) in message
        assert "KeyError" not in message

    def test_missing_version_rejected(self):
        payload = small_payload()
        del payload["format_version"]
        with pytest.raises(ArtifactError):
            LazyArtifact.from_payload(payload)

    def test_non_object_payload_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ArtifactError):
            LazyArtifact.load_json(path)


class TestAccessors:
    """A JSON artifact's queries are answered by its packed tables."""

    def test_total_nodes(self):
        assert small_artifact().total_nodes == 1

    def test_unknown_batch_raises(self):
        with pytest.raises(ArtifactError):
            small_artifact().graph_table(512)

    def test_unknown_permanent_payload_raises(self):
        with pytest.raises(ArtifactError):
            small_artifact().permanent_payload(99)
