"""Triggering-kernel tests (§5.1/§5.2).

The standard model catalogs are built so the first layer's kernels trigger
every hidden module (lm_head shares the MLP GEMM module).  Here we *break*
that property — giving lm_head a module of its own that no first-layer
kernel touches — and check that the offline phase emits a handwritten
trigger plan (§5.1) and the online phase restores through it.
"""

import pytest

from repro.core.offline import OfflinePhase
from repro.core.online import medusa_cold_start
from repro.core.validation import validate_restoration
from repro.models import kernels_catalog
from repro.simgpu.process import ExecutionMode

from tests.conftest import replaced, tiny_cost_model


@pytest.fixture
def isolated_lm_head(monkeypatch):
    """Move lm_head into its own hidden module, uncovered by layer 1."""
    shape = dict(kernels_catalog._KERNEL_SHAPES["lm_head"])
    shape["module"] = "mod_gemm_lmhead"
    monkeypatch.setitem(kernels_catalog._KERNEL_SHAPES, "lm_head", shape)


class TestHandwrittenTriggerPlans:
    def test_offline_emits_trigger_plan(self, isolated_lm_head):
        artifact, _report = OfflinePhase(
            "Tiny-2L", seed=41, mode=ExecutionMode.COMPUTE,
            cost_model=tiny_cost_model()).run()
        assert len(artifact.trigger_plans) == 1
        plan = artifact.trigger_plans[0]
        assert "lm_head" in plan.kernel_name

    def test_online_restores_via_trigger_plan(self, isolated_lm_head):
        artifact, _report = OfflinePhase(
            "Tiny-2L", seed=42, mode=ExecutionMode.COMPUTE,
            cost_model=tiny_cost_model()).run()
        report = validate_restoration("Tiny-2L", artifact, batches=[1, 2],
                                      seed=43, cost_model=tiny_cost_model())
        assert report.passed

    def test_online_fails_without_trigger_plan(self, isolated_lm_head):
        """Dropping the plan leaves the hidden module unloaded: restoration
        must fail loudly, not produce a broken graph."""
        from repro.errors import RestorationError
        artifact, _report = OfflinePhase(
            "Tiny-2L", seed=44, mode=ExecutionMode.COMPUTE,
            cost_model=tiny_cost_model()).run()
        artifact = replaced(artifact, trigger_plans=[])
        with pytest.raises(RestorationError):
            medusa_cold_start("Tiny-2L", artifact, seed=45,
                              mode=ExecutionMode.TIMING,
                              cost_model=tiny_cost_model())


class TestFirstLayerTriggering:
    def test_standard_catalog_needs_no_plans(self, tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        assert artifact.trigger_plans == []

    def test_first_layer_covers_all_hidden_modules(self, tiny2l_artifact):
        """§5.2: layers are structurally identical, so layer-1 kernels load
        every module the remaining layers' hidden kernels live in."""
        from repro.models.kernels_catalog import build_catalog
        from repro.models.zoo import get_model_config
        artifact = tiny2l_artifact[0]
        catalog = build_catalog(get_model_config("Tiny-2L"))
        first_layer = artifact.graph_table(1).node_kernel_names()[
            :artifact.first_layer_nodes]
        covered = {(catalog.kernel(name).library,
                    catalog.kernel(name).module)
                   for name in first_layer}
        for batch in artifact.batches:
            for name in artifact.graph_table(batch).node_kernel_names():
                spec = catalog.kernel(name)
                if spec.hidden:
                    assert (spec.library, spec.module) in covered
