"""Offline phase tests on the tiny models."""

import pytest

from repro.core.offline import OfflinePhase
from repro.models.zoo import get_model_config

from tests.conftest import tiny_cost_model

TINY2 = get_model_config("Tiny-2L")


class TestOfflineArtifact:
    def test_graphs_for_all_batch_sizes(self, tiny2l_artifact):
        artifact, _report = tiny2l_artifact
        assert set(artifact.batches) == set(TINY2.capture_batch_sizes)
        assert artifact.total_nodes == TINY2.total_graph_nodes

    def test_kernel_names_not_addresses(self, tiny2l_artifact):
        artifact, _report = tiny2l_artifact
        for batch in artifact.batches:
            for name in artifact.graph_table(batch).node_kernel_names():
                assert name.startswith("_ZN")
                assert name in artifact.kernel_libraries

    def test_structure_prefix_covers_weights(self, tiny2l_artifact):
        artifact, _report = tiny2l_artifact
        assert len(artifact.structure_prefix) == TINY2.weight_buffer_count()
        assert all(tag == "weight" for _size, tag in artifact.structure_prefix)

    def test_kv_materialization_present(self, tiny2l_artifact):
        artifact, _report = tiny2l_artifact
        assert artifact.kv_bytes > 0
        assert artifact.kv_num_blocks > 0
        assert artifact.kv_alloc_index >= 0

    def test_permanent_contents_are_magic_buffers_only(self, tiny2l_artifact):
        """§4.3: ~9% of kernels need two 4-byte permanent buffers."""
        artifact, _report = tiny2l_artifact
        assert len(artifact.permanent_contents) == 2   # one magic GEMM kernel
        assert 0.05 < artifact.stats["permanent_kernel_fraction"] < 0.15

    def test_most_buffers_skip_contents(self, tiny2l_artifact):
        """Copy-free restoration: temporaries + pre-capture dominate."""
        artifact, _report = tiny2l_artifact
        stats = artifact.stats
        skipped = stats["pre_capture_buffers"] + stats["temporary_buffers"]
        assert skipped > 10 * stats["permanent_buffers"]

    def test_no_trigger_plans_needed_for_standard_models(self,
                                                         tiny2l_artifact):
        """First-layer kernels cover every hidden module (§5.2)."""
        artifact, _report = tiny2l_artifact
        assert artifact.trigger_plans == []

    def test_first_layer_nodes_is_prologue_plus_layer(self, tiny2l_artifact):
        artifact, _report = tiny2l_artifact
        template = TINY2.kernel_template()
        assert artifact.first_layer_nodes == 1 + len(template.layer_kernels)

    def test_interior_pointers_found_for_kv(self, tiny2l_artifact):
        """Layer >= 1 attention uses interior KV pointers (§4.1)."""
        artifact, _report = tiny2l_artifact
        assert artifact.stats["interior_pointers"] >= len(artifact.batches)


class TestOfflineReport:
    def test_offline_times_positive(self, tiny2l_artifact):
        _artifact, report = tiny2l_artifact
        assert report.capture_stage_time > 0
        assert report.analysis_time > 0
        assert report.total_time == pytest.approx(
            report.capture_stage_time + report.analysis_time)

    def test_analysis_scales_with_nodes(self, tiny2l_artifact,
                                        tiny4l_artifact):
        _a2, report2 = tiny2l_artifact
        _a4, report4 = tiny4l_artifact
        assert report4.analysis_time > report2.analysis_time


class TestLayerEntryPoints:
    def test_analysis_and_classify_run_through_module_globals(self):
        """The offline phase reaches the pointer analysis and the
        classifier through ``repro.core.offline``'s globals, once per
        captured graph and at least once: a spy patched there sees every
        call.  A call through a name bound elsewhere would leave a layer
        wrapped there reading 0."""
        from unittest import mock

        from repro.core import offline
        analyze = mock.patch.object(offline, "analyze_graph_params",
                                    wraps=offline.analyze_graph_params)
        classify = mock.patch.object(offline, "classify_buffers",
                                     wraps=offline.classify_buffers)
        with analyze as analyze, classify as classify:
            artifact, _report = offline.run_offline("Tiny-2L")
        assert analyze.call_count == len(artifact.batches)
        assert classify.call_count >= 1


class TestNodeKernelCheck:
    """The analysis reads each captured node's kernel from the graph's
    address column and checks it against its launch."""

    def test_a_node_whose_kernel_is_not_its_launch_is_refused(self):
        from repro.errors import MaterializationError
        phase = OfflinePhase("Tiny-2L")
        engine, trace, _ = phase._capturing_stage()
        graph = engine.capture_artifacts.graphs[2]
        addresses = graph.columns.kernel_addresses
        driver = engine.process.driver
        first, third = (driver.cu_func_get_name(int(addresses[i]))
                        for i in (1, 3))
        addresses[3] = addresses[1]
        with pytest.raises(MaterializationError,
                           match=f"node/launch mismatch: {first} vs "
                                 f"{third}"):
            phase._analysis_stage(engine, trace)


class TestDeterminism:
    def test_two_offline_runs_produce_equivalent_artifacts(self):
        from repro.simgpu.process import ExecutionMode
        cm = tiny_cost_model()
        art_a, _ = OfflinePhase("Tiny-2L", seed=21,
                                mode=ExecutionMode.COMPUTE,
                                cost_model=cm).run()
        art_b, _ = OfflinePhase("Tiny-2L", seed=22,
                                mode=ExecutionMode.COMPUTE,
                                cost_model=cm).run()
        # Different seeds -> different raw addresses offline, but the
        # materialized (address-free) artifacts must be identical.
        assert art_a.to_json() == art_b.to_json()


def _cyclic_garbage(run):
    """Call ``run()`` with the collector off and drop its result; the
    number of objects a collection then finds unreachable.

    Refcounting frees everything acyclic, so this counts exactly what
    only the cyclic collector could free.
    """
    import gc
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        run()
        unreachable = gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    return unreachable


def _tiny_cold_start(artifact, **kwargs):
    from repro.core.online import medusa_cold_start
    from repro.simgpu.process import ExecutionMode
    return medusa_cold_start("Tiny-2L", artifact, seed=7,
                             mode=ExecutionMode.COMPUTE,
                             cost_model=tiny_cost_model(), **kwargs)


class TestCollectorPause:
    """``OfflinePhase.run`` and ``medusa_cold_start`` pause the cyclic GC;
    that must cost nothing."""

    def test_run_leaves_no_cyclic_garbage(self):
        """A dropped offline result and its engine are freed by
        refcounting alone."""
        phase = OfflinePhase("Tiny-2L", cost_model=tiny_cost_model())
        assert phase.run()[0].total_nodes > 0       # warm-up
        assert _cyclic_garbage(phase.run) == 0

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_restored(self, enabled):
        import gc
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            OfflinePhase("Tiny-2L", cost_model=tiny_cost_model()).run()
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_collector_restored_when_run_raises(self, monkeypatch):
        import gc
        from repro.errors import MaterializationError

        def fail(self, engine, trace):
            raise MaterializationError("analysis failed")

        monkeypatch.setattr(OfflinePhase, "_analysis_stage", fail)
        assert gc.isenabled()
        with pytest.raises(MaterializationError):
            OfflinePhase("Tiny-2L", cost_model=tiny_cost_model()).run()
        assert gc.isenabled()

    # -- the online phase ----------------------------------------------------

    def test_cold_start_pauses_collector(self, tiny2l_artifact, monkeypatch):
        import gc
        from repro.engine.engine import LLMEngine
        states = []
        cold_start = LLMEngine.cold_start

        def spy(self, *args, **kwargs):
            states.append(gc.isenabled())
            return cold_start(self, *args, **kwargs)

        monkeypatch.setattr(LLMEngine, "cold_start", spy)
        assert gc.isenabled()
        _tiny_cold_start(tiny2l_artifact[0])
        assert states == [False]
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_cold_start_restores_collector_state(self, tiny2l_artifact,
                                                 enabled):
        import gc
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            _tiny_cold_start(tiny2l_artifact[0])
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_collector_restored_when_cold_start_raises(self,
                                                       tiny2l_artifact):
        """A replay OOM with no DegradationPolicy fails the restore."""
        import gc
        from repro.errors import OutOfMemoryError
        from repro.faults import (
            PHASE_KV,
            FaultInjector,
            FaultKind,
            FaultPlan,
            FaultSpec,
        )
        injector = FaultInjector(FaultPlan(seed=1, faults=(
            FaultSpec(kind=FaultKind.REPLAY_OOM, phase=PHASE_KV),)))
        assert gc.isenabled()
        with pytest.raises(OutOfMemoryError):
            _tiny_cold_start(tiny2l_artifact[0], injector=injector)
        assert injector.fired
        assert gc.isenabled()

    def test_cold_start_leaves_no_cyclic_garbage(self, tiny2l_artifact,
                                                 tmp_path):
        """A dropped engine is freed by refcounting alone, whatever the
        input: eager, a file or a store.  A warm-up restore of each kind
        first parses its ``.npy`` headers into the decoder's cache."""
        from repro.core.binfmt import save_binary
        from repro.core.chunks import open_binary
        from repro.core.store import ArtifactStore
        artifact, _ = tiny2l_artifact
        save_binary(artifact, tmp_path / "tiny.medusa")
        store = ArtifactStore(tmp_path / "store")
        store.put(artifact)
        inputs = {
            "eager": lambda: artifact,
            "file": lambda: open_binary(tmp_path / "tiny.medusa"),
            "chunked": lambda: store.get_lazy(artifact.gpu_name,
                                              artifact.model_name),
        }
        for kind, open_input in inputs.items():
            _tiny_cold_start(open_input())          # warm-up
            unreachable = _cyclic_garbage(
                lambda: _tiny_cold_start(open_input()))
            assert unreachable == 0, kind

    def test_simulation_leaves_no_cyclic_garbage(self, tmp_path):
        """The library path of ``repro simulate --trace``: materialize,
        cold start, simulate a toy pool, summarize, write the trace."""
        from repro.core.offline import run_offline
        from repro.core.online import cold_start_for
        from repro.engine import Strategy
        from repro.reporting.timeline import save_simulation_trace
        from repro.serverless import (
            ClusterSimulator,
            ModelDeployment,
            ServingCostModel,
            ShareGPTWorkload,
        )

        def simulate():
            artifact, _ = run_offline("Tiny-2L", seed=7)
            _engine, report = cold_start_for("Tiny-2L", Strategy.MEDUSA,
                                             artifact=artifact, seed=7)
            simulator = ClusterSimulator(
                ModelDeployment.from_report(ServingCostModel("Tiny-2L"),
                                            report), 2, trace=True)
            workload = ShareGPTWorkload(rps=2, duration=20, seed=7,
                                        shape="burst")
            metrics = simulator.run(workload.generate(), horizon=20)
            assert metrics.summary()
            assert save_simulation_trace(simulator.loop.trace,
                                         tmp_path / "trace.json") > 0

        simulate()                                  # warm-up
        assert _cyclic_garbage(simulate) == 0

    def test_cold_header_cache_bounds_cyclic_garbage(self, tiny2l_artifact,
                                                     tmp_path):
        """The only cycles a restore drops are ``ast.literal_eval``'s own
        closures, one small set per newly parsed ``.npy`` header."""
        from repro.core.binfmt import _npy_header
        from repro.core.store import ArtifactStore
        artifact, _ = tiny2l_artifact
        store = ArtifactStore(tmp_path / "store")
        store.put(artifact)
        chunked = store.get_lazy(artifact.gpu_name, artifact.model_name)
        _npy_header.cache_clear()
        unreachable = _cyclic_garbage(lambda: _tiny_cold_start(chunked))
        parsed = _npy_header.cache_info().misses
        assert parsed > 0
        assert unreachable <= 16 * parsed
