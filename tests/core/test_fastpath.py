"""Vectorized fast-path restoration tests (pipelined LoadPlan + gather)."""

import re

import numpy as np
import pytest

from repro.core.binfmt import save_binary
from repro.core.chunks import open_binary
from repro.core.fastpath import VectorizedRestorer
from repro.core.online import medusa_cold_start, prepare_medusa_cold_start
from repro.engine.loadplan import restore_graph_stage
from repro.engine.strategies import plan_for
from repro.errors import RestorationError
from repro.faults import (
    DegradationPolicy,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    injecting,
)
from repro.simgpu.process import ExecutionMode

from tests.conftest import tiny_cost_model
from tests.faults.conftest import assert_serves_correctly

MODEL = "Tiny-2L"


@pytest.fixture(scope="session")
def tiny2l_file(tmp_path_factory, tiny2l_artifact):
    artifact, _ = tiny2l_artifact
    path = tmp_path_factory.mktemp("fastpath") / "tiny2l.medusa"
    save_binary(artifact, path)
    return path


def plan_name(engine):
    """The LoadPlan a prepared engine will run (None = the registered one)."""
    return (engine.plan or plan_for(engine.strategy)).name


def fast_cold_start(path, mode=ExecutionMode.TIMING, **kwargs):
    return medusa_cold_start(MODEL, open_binary(path), seed=7, mode=mode,
                             cost_model=tiny_cost_model(), **kwargs)


class TestFastPathCorrectness:
    def test_serves_identical_outputs(self, tiny2l_file, tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        engine, report = fast_cold_start(tiny2l_file,
                                         mode=ExecutionMode.COMPUTE)
        assert report.timeline.plan == "medusa-pipelined"
        assert_serves_correctly(engine, artifact)

    def test_verify_dumps_vectorized(self, tiny2l_file):
        engine, restorer = prepare_medusa_cold_start(
            MODEL, open_binary(tiny2l_file), seed=7,
            mode=ExecutionMode.COMPUTE, cost_model=tiny_cost_model(),
            policy=DegradationPolicy(verify_dumps=True))
        assert restorer._verify_dumps
        report = engine.cold_start(restorer=restorer)
        assert report.timeline.plan == "medusa-pipelined"
        assert engine.capture_artifacts.execs


class TestPathSelection:
    """One restorer for every input; the input alone picks the plan."""

    def test_lazy_artifact_auto_routes_to_fast_path(self, tiny2l_file):
        engine, restorer = prepare_medusa_cold_start(
            MODEL, open_binary(tiny2l_file), cost_model=tiny_cost_model())
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

    def test_policy_keeps_pipelined_plan(self, tiny2l_file):
        engine, restorer = prepare_medusa_cold_start(
            MODEL, open_binary(tiny2l_file), cost_model=tiny_cost_model(),
            policy=DegradationPolicy())
        assert isinstance(restorer, VectorizedRestorer)
        assert plan_name(engine) == "medusa-pipelined"

    def test_chaos_run_falls_back_and_degrades(self, tiny2l_file,
                                               chaos_seed):
        spec = FaultSpec(kind=FaultKind.ARTIFACT_CORRUPTION)
        injector = FaultInjector(FaultPlan(seed=chaos_seed, faults=(spec,)))
        with injecting(injector):
            engine, report = fast_cold_start(
                tiny2l_file, mode=ExecutionMode.COMPUTE,
                policy=DegradationPolicy())
        assert injector.fired
        assert report.timeline.plan == "medusa-pipelined+degraded"
        assert engine.capture_artifacts is not None


class TestPipelinedTimeline:
    def test_non_first_restore_stages_are_background(self, tiny2l_file,
                                                     tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        _engine, report = fast_cold_start(tiny2l_file)
        batches = sorted(artifact.batches, reverse=True)
        stages = {stage.name: stage for stage in report.timeline.stages}
        first = stages[restore_graph_stage(batches[0])]
        assert not first.background
        assert first.critical
        for batch in batches[1:]:
            stage = stages[restore_graph_stage(batch)]
            assert stage.background
            assert not stage.critical

    def test_ready_precedes_background_tail(self, tiny2l_file):
        _engine, report = fast_cold_start(tiny2l_file)
        timeline = report.timeline
        assert timeline.ready < timeline.total
        assert report.ready_time == timeline.ready
        assert report.loading_time == timeline.total

    def test_pipelined_ready_beats_monolithic_plan(self, tiny2l_file,
                                                   tiny2l_artifact):
        artifact, _ = tiny2l_artifact
        _engine, fast = fast_cold_start(tiny2l_file)
        _engine, slow = medusa_cold_start(
            artifact.model_name, artifact, seed=7,
            cost_model=tiny_cost_model())
        assert slow.ready_time == slow.timeline.total
        assert fast.ready_time < slow.ready_time


class TestColumnGraphs:
    """A restored graph is its table's columns around the gathered params."""

    def _restored(self, path):
        engine, restorer = prepare_medusa_cold_start(
            MODEL, open_binary(path), seed=7, cost_model=tiny_cost_model())
        engine.cold_start(restorer=restorer)
        return engine, restorer

    def test_restored_graph_is_the_gathered_columns(self, tiny2l_file):
        engine, restorer = self._restored(tiny2l_file)
        batch = max(restorer.artifact.batches)
        table = restorer.artifact.graph_table(batch)
        columns = engine.capture_artifacts.graphs[batch].columns
        assert np.array_equal(columns.param_values,
                              restorer._resolved_values(table))
        assert columns.edges is table.edges
        driver = engine.process.driver
        assert [driver.cu_func_get_name(address) for address
                in columns.kernel_addresses.tolist()] == \
            [table.kernel_names[i] for i in table.kernel_ids.tolist()]

    def test_warm_up_launches_the_gathered_first_layer(self, tiny2l_file):
        engine, restorer = self._restored(tiny2l_file)
        batch = max(restorer.artifact.batches)
        table = restorer.artifact.graph_table(batch)
        plan = restorer._first_layer_plan(engine, batch)
        assert len(plan) == restorer.artifact.first_layer_nodes
        stop = int(table.param_offsets[len(plan)])
        launched = [(param.size, param.value)
                    for _name, _spec, params, _dims in plan
                    for param in params]
        assert launched == list(zip(
            table.param_sizes[:stop].tolist(),
            restorer._resolved_values(table, stop=stop).tolist()))

    def test_missing_address_names_first_node(self, tiny2l_file):
        _engine, restorer = self._restored(tiny2l_file)
        table = restorer.artifact.graph_table(max(restorer.artifact.batches))
        ids = table.kernel_ids.tolist()
        # Two kernels lose their address: node 0's and the lowest id,
        # which first appears later in node order.
        assert ids[0] != min(ids)
        for kernel_id in (ids[0], min(ids)):
            del restorer._name_to_address[table.kernel_names[kernel_id]]
        with pytest.raises(RestorationError, match=re.escape(
                f"no restored address for kernel "
                f"{table.kernel_names[ids[0]]}")):
            restorer._assemble_graph(table)
