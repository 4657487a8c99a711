"""Artifact (de)serialization and integrity tests."""

import numpy as np
import pytest

from repro.core.artifact import (
    ARTIFACT_FORMAT_VERSION,
    MaterializedGraph,
    MaterializedModel,
    MaterializedNode,
    ParamRestore,
    ReplayEvent,
    TriggerPlan,
)
from repro.core.binfmt import as_lazy
from repro.errors import ArtifactError


def small_artifact() -> MaterializedModel:
    artifact = MaterializedModel(model_name="Tiny-2L", gpu_name="Tiny-GPU",
                                 kv_bytes=1 << 20, kv_num_blocks=8,
                                 kv_layer_stride=4096, kv_alloc_index=3)
    artifact.structure_prefix = [(256, "weight"), (512, "weight")]
    artifact.replay_events = [
        ReplayEvent("alloc", alloc_index=2, size=256, tag="act", pool="graph"),
        ReplayEvent("free", alloc_index=2, pooled=True),
        ReplayEvent("empty_cache"),
    ]
    artifact.kernel_libraries = {"k1": "libtorch_sim"}
    artifact.permanent_contents = {7: [[1.0]]}
    artifact.graphs[1] = MaterializedGraph(
        batch_size=1,
        nodes=[MaterializedNode(
            kernel_name="k1", param_sizes=[8, 4],
            param_restores=[ParamRestore.pointer(2, 16),
                            ParamRestore.const(42)],
            launch_dims={"batch_size": 1})],
        edges=[(0, 0)] and [],
        param_bytes=1024, num_tokens=1)
    artifact.first_layer_nodes = 1
    artifact.trigger_plans = [TriggerPlan("k1", (1, 0))]
    artifact.stats = {"total_nodes": 1.0}
    return artifact


class TestRoundTrip:
    def test_json_round_trip_preserves_everything(self, tmp_path):
        artifact = small_artifact()
        path = tmp_path / "artifact.json"
        size = artifact.save(path)
        assert size > 0
        loaded = MaterializedModel.load(path)
        assert loaded.model_name == artifact.model_name
        assert loaded.kv_bytes == artifact.kv_bytes
        assert loaded.structure_prefix == artifact.structure_prefix
        assert loaded.replay_events == artifact.replay_events
        assert loaded.kernel_libraries == artifact.kernel_libraries
        assert loaded.trigger_plans == artifact.trigger_plans
        graph = loaded.graphs[1]
        assert graph.nodes[0].param_restores == \
            artifact.graphs[1].nodes[0].param_restores
        assert graph.nodes[0].launch_dims == {"batch_size": 1}

    def test_permanent_payload_round_trips(self, tmp_path):
        artifact = small_artifact()
        path = tmp_path / "artifact.json"
        artifact.save(path)
        loaded = MaterializedModel.load(path)
        np.testing.assert_array_equal(as_lazy(loaded).permanent_payload(7),
                                      np.array([[1.0]]))

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ArtifactError):
            MaterializedModel.load(tmp_path / "nope.json")

    def test_corrupt_json_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ArtifactError):
            MaterializedModel.load(path)

    def test_version_mismatch_raises(self):
        artifact = small_artifact()
        text = artifact.to_json().replace(
            f'"format_version": {ARTIFACT_FORMAT_VERSION}',
            '"format_version": 0')
        with pytest.raises(ArtifactError):
            MaterializedModel.from_json(text)

    def test_v1_payload_rejected_naming_both_versions(self, tmp_path):
        """A stale v1 artifact fails with a message naming both versions,
        not a cryptic KeyError from a missing v2 field."""
        import json
        payload = json.loads(small_artifact().to_json())
        payload["format_version"] = 1
        del payload["trigger_plans"]        # field v1 predates
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ArtifactError) as excinfo:
            MaterializedModel.load(path)
        message = str(excinfo.value)
        assert "1" in message
        assert str(ARTIFACT_FORMAT_VERSION) in message
        assert "KeyError" not in message

    def test_missing_version_rejected(self):
        import json
        payload = json.loads(small_artifact().to_json())
        del payload["format_version"]
        with pytest.raises(ArtifactError):
            MaterializedModel.from_json(json.dumps(payload))

    def test_non_object_payload_rejected(self):
        with pytest.raises(ArtifactError):
            MaterializedModel.from_json("[1, 2, 3]")


class TestAccessors:
    """The object form's queries are answered by its packed form."""

    def test_total_nodes(self):
        assert as_lazy(small_artifact()).total_nodes == 1

    def test_unknown_batch_raises(self):
        with pytest.raises(ArtifactError):
            as_lazy(small_artifact()).graph_table(512)

    def test_unknown_permanent_payload_raises(self):
        with pytest.raises(ArtifactError):
            as_lazy(small_artifact()).permanent_payload(99)
