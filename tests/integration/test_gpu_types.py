"""Cross-GPU-type behaviour: artifacts are per <GPU type, model type> (§3)."""

import pytest

from repro.core.offline import run_offline
from repro.core.online import medusa_cold_start
from repro.core.store import ArtifactStore
from repro.engine import LLMEngine, Strategy
from repro.errors import RestorationError
from repro.simgpu.costmodel import A100_40GB, H100_80GB, CostModel


@pytest.fixture(scope="module")
def per_gpu_artifacts():
    artifacts = {}
    for gpu in (A100_40GB, H100_80GB):
        artifact, _report = run_offline(
            "Qwen1.5-4B", seed=88, cost_model=CostModel(gpu=gpu))
        artifacts[gpu.name] = artifact
    return artifacts


class TestPerGpuMaterialization:
    def test_kv_sizes_differ_across_gpus(self, per_gpu_artifacts):
        """The profiled free memory — the §6 materialized value — is a
        per-GPU quantity; an 80 GiB device leaves far more for KV."""
        a100 = per_gpu_artifacts[A100_40GB.name]
        h100 = per_gpu_artifacts[H100_80GB.name]
        assert h100.kv_bytes > 1.5 * a100.kv_bytes
        assert h100.kv_num_blocks >= a100.kv_num_blocks

    def test_graph_structure_is_gpu_independent(self, per_gpu_artifacts):
        a100 = per_gpu_artifacts[A100_40GB.name]
        h100 = per_gpu_artifacts[H100_80GB.name]
        assert a100.total_nodes == h100.total_nodes

    def test_store_keeps_both(self, per_gpu_artifacts, tmp_path):
        store = ArtifactStore(tmp_path)
        for artifact in per_gpu_artifacts.values():
            store.put(artifact)
        assert len(store.list()) == 2
        loaded = store.get(H100_80GB.name, "Qwen1.5-4B")
        assert loaded.gpu_name == H100_80GB.name
        assert loaded.total_nodes \
            == per_gpu_artifacts[H100_80GB.name].total_nodes

    def test_cross_gpu_restore_rejected(self, per_gpu_artifacts):
        a100_artifact = per_gpu_artifacts[A100_40GB.name]
        with pytest.raises(RestorationError):
            medusa_cold_start("Qwen1.5-4B", a100_artifact, seed=89,
                              cost_model=CostModel(gpu=H100_80GB))

    def test_matching_gpu_restores(self, per_gpu_artifacts):
        h100_artifact = per_gpu_artifacts[H100_80GB.name]
        _engine, report = medusa_cold_start(
            "Qwen1.5-4B", h100_artifact, seed=90,
            cost_model=CostModel(gpu=H100_80GB))
        assert report.loading_time > 0

    def test_h100_cold_start_is_faster(self):
        a100 = LLMEngine("Qwen1.5-4B", Strategy.VLLM, seed=91,
                         cost_model=CostModel(gpu=A100_40GB)).cold_start()
        h100 = LLMEngine("Qwen1.5-4B", Strategy.VLLM, seed=92,
                         cost_model=CostModel(gpu=H100_80GB)).cold_start()
        assert h100.loading_time < a100.loading_time
