"""Vectorized fast-path restoration tests (pipelined LoadPlan + gather)."""

import numpy as np
import pytest

from repro.core.binfmt import LazyArtifact, save_binary
from repro.core.fastpath import PackedParams, VectorizedRestorer
from repro.core.online import medusa_cold_start, prepare_medusa_cold_start
from repro.engine.loadplan import restore_graph_stage
from repro.engine.strategies import plan_for
from repro.faults import (
    DegradationPolicy,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
)
from repro.simgpu.process import ExecutionMode

from tests.conftest import tiny_cost_model
from tests.faults.conftest import assert_serves_correctly

MODEL = "Tiny-2L"


@pytest.fixture(scope="session")
def tiny2l_npz(tmp_path_factory, tiny2l_artifact):
    artifact, _ = tiny2l_artifact
    path = tmp_path_factory.mktemp("fastpath") / "tiny2l.medusa.npz"
    save_binary(artifact, path)
    return path


def plan_name(engine):
    """The LoadPlan a prepared engine will run (None = the registered one)."""
    return (engine.plan or plan_for(engine.strategy)).name


def fast_cold_start(path, mode=ExecutionMode.TIMING, **kwargs):
    return medusa_cold_start(MODEL, LazyArtifact(path), seed=7, mode=mode,
                             cost_model=tiny_cost_model(), **kwargs)


class TestFastPathCorrectness:
    def test_serves_identical_outputs(self, tiny2l_npz, tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        engine, report = fast_cold_start(tiny2l_npz,
                                         mode=ExecutionMode.COMPUTE)
        assert report.timeline.plan == "medusa-pipelined"
        assert_serves_correctly(engine, artifact)

    def test_verify_dumps_vectorized(self, tiny2l_npz):
        engine, _ = prepare_medusa_cold_start(
            MODEL, LazyArtifact(tiny2l_npz), seed=7,
            mode=ExecutionMode.COMPUTE, cost_model=tiny_cost_model())
        restorer = VectorizedRestorer(LazyArtifact(tiny2l_npz),
                                      verify_dumps=True)
        report = engine.cold_start(restorer=restorer)
        assert report.timeline.plan == "medusa-pipelined"
        assert engine.capture_artifacts.execs

    def test_packs_eager_artifact(self, tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        restorer = VectorizedRestorer(artifact)
        assert isinstance(restorer.artifact, LazyArtifact)
        assert restorer.artifact.batches == sorted(artifact.graphs)
        assert restorer.artifact.total_nodes == artifact.total_nodes


class TestPathSelection:
    """One restorer for every input; the input and hooks pick the plan."""

    def test_lazy_artifact_auto_routes_to_fast_path(self, tiny2l_npz):
        engine, restorer = prepare_medusa_cold_start(
            MODEL, LazyArtifact(tiny2l_npz), cost_model=tiny_cost_model())
        assert isinstance(restorer, VectorizedRestorer)
        assert plan_name(engine) == "medusa-pipelined"

    def test_eager_artifact_gets_monolithic_plan(self, tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        engine, restorer = prepare_medusa_cold_start(
            artifact.model_name, artifact, cost_model=tiny_cost_model())
        assert isinstance(restorer, VectorizedRestorer)
        assert plan_name(engine) == "medusa"

    def test_fast_requires_lazy_artifact(self, tiny2l_artifact, tmp_path):
        from repro.core.store import ArtifactStore
        artifact, _ = tiny2l_artifact
        store = ArtifactStore(tmp_path / "store")
        store.put(artifact)
        engine, _restorer = prepare_medusa_cold_start(
            MODEL, store.get_lazy(artifact.gpu_name, MODEL),
            cost_model=tiny_cost_model())
        assert plan_name(engine) == "medusa-chunked"
        eager_engine, _restorer = prepare_medusa_cold_start(
            MODEL, artifact, cost_model=tiny_cost_model())
        assert plan_name(eager_engine) == "medusa"

    def test_policy_keeps_monolithic_plan(self, tiny2l_npz):
        engine, restorer = prepare_medusa_cold_start(
            MODEL, LazyArtifact(tiny2l_npz), cost_model=tiny_cost_model(),
            policy=DegradationPolicy())
        assert isinstance(restorer, VectorizedRestorer)
        assert plan_name(engine) == "medusa"

    def test_chaos_run_falls_back_and_degrades(self, tiny2l_npz):
        spec = FaultSpec(kind=FaultKind.ARTIFACT_CORRUPTION)
        injector = FaultInjector(FaultPlan(seed=11, faults=(spec,)))
        engine, report = fast_cold_start(
            tiny2l_npz, mode=ExecutionMode.COMPUTE, injector=injector,
            policy=DegradationPolicy())
        assert injector.fired
        assert report.timeline.plan == "medusa+degraded"
        assert engine.capture_artifacts is not None


class TestPipelinedTimeline:
    def test_non_first_restore_stages_are_background(self, tiny2l_npz,
                                                     tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        _engine, report = fast_cold_start(tiny2l_npz)
        batches = sorted(artifact.graphs, reverse=True)
        stages = {stage.name: stage for stage in report.timeline.stages}
        first = stages[restore_graph_stage(batches[0])]
        assert not first.background
        assert first.critical
        for batch in batches[1:]:
            stage = stages[restore_graph_stage(batch)]
            assert stage.background
            assert not stage.critical

    def test_ready_precedes_background_tail(self, tiny2l_npz):
        _engine, report = fast_cold_start(tiny2l_npz)
        timeline = report.timeline
        assert timeline.ready < timeline.total
        assert report.ready_time == timeline.ready
        assert report.loading_time == timeline.total

    def test_pipelined_ready_beats_monolithic_plan(self, tiny2l_npz,
                                                   tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        _engine, fast = fast_cold_start(tiny2l_npz)
        _engine, slow = medusa_cold_start(
            artifact.model_name, artifact, seed=7,
            cost_model=tiny_cost_model())
        assert slow.ready_time == slow.timeline.total
        assert fast.ready_time < slow.ready_time


class TestPackedParams:
    def _params(self):
        sizes = np.array([8, 8, 4], dtype=np.int64)
        values = np.array([10, 20, 30], dtype=np.int64)
        return sizes, values, PackedParams(sizes, values, 0, 3)

    def test_len_get_and_iter(self):
        _sizes, _values, params = self._params()
        assert len(params) == 3
        assert params[0].value == 10
        assert params[-1].size == 4
        assert [p.value for p in params] == [10, 20, 30]

    def test_setitem_writes_through(self):
        from repro.simgpu.kernels import KernelParam
        _sizes, values, params = self._params()
        params[1] = KernelParam(8, 99)
        assert values[1] == 99

    def test_out_of_range_raises(self):
        _sizes, _values, params = self._params()
        with pytest.raises(IndexError):
            params[3]

    def test_slice_window(self):
        sizes = np.array([8] * 5, dtype=np.int64)
        values = np.arange(5, dtype=np.int64)
        window = PackedParams(sizes, values, 2, 4)
        assert len(window) == 2
        assert [p.value for p in window] == [2, 3]
