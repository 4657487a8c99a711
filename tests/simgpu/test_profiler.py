"""Kernel profiler tests."""

import pytest

from repro.engine import LLMEngine, Strategy
from repro.models.zoo import get_model_config
from repro.simgpu.process import ExecutionMode
from repro.simgpu.profiler import KernelProfiler, profile

from tests.conftest import tiny_cost_model

TINY = get_model_config("Tiny-2L")


class TestKernelProfiler:
    def make_profiled_engine(self, keep_samples=False):
        engine = LLMEngine("Tiny-2L", Strategy.VLLM, seed=44,
                           mode=ExecutionMode.TIMING,
                           cost_model=tiny_cost_model())
        profiler = profile(engine.process, keep_samples=keep_samples)
        engine.cold_start()
        return engine, profiler

    def test_counts_warmups_and_captures(self):
        _engine, profiler = self.make_profiled_engine()
        captured_expected = TINY.total_graph_nodes
        assert profiler.captured_launches == captured_expected
        # warm-ups (one per batch size) plus the profiling forwarding
        assert profiler.eager_launches > captured_expected

    def test_per_library_breakdown(self):
        _engine, profiler = self.make_profiled_engine()
        assert set(profiler.per_library) == {
            "libtorch_sim", "libvllm_sim", "libcublas_sim"}

    def test_samples_kept_on_request(self):
        _engine, profiler = self.make_profiled_engine(keep_samples=True)
        assert len(profiler.samples) == profiler.total_launches
        assert all(s.time >= 0 for s in profiler.samples)

    def test_profiler_adds_no_simulated_overhead(self):
        baseline = LLMEngine("Tiny-2L", Strategy.VLLM, seed=44,
                             mode=ExecutionMode.TIMING,
                             cost_model=tiny_cost_model())
        baseline.cold_start()
        profiled, _profiler = self.make_profiled_engine()
        assert profiled.process.clock.now == \
            pytest.approx(baseline.process.clock.now)

    def test_summary_keys(self):
        _engine, profiler = self.make_profiled_engine()
        summary = profiler.summary()
        assert summary["total_launches"] == float(profiler.total_launches)
        assert summary["distinct_kernels"] > 0


class TestProfiledMedusaRestore:
    """The profiler only watches launches, so it may stay attached through
    a Medusa restore's allocation replay."""

    def test_profiles_a_medusa_cold_start(self, tiny2l_artifact):
        from repro.core.online import (medusa_cold_start,
                                       prepare_medusa_cold_start)
        from repro.faults.ladder import DegradationPolicy
        artifact, _report = tiny2l_artifact
        _baseline, unprofiled = medusa_cold_start(
            TINY, artifact, seed=7, cost_model=tiny_cost_model())
        engine, restorer = prepare_medusa_cold_start(
            TINY, artifact, seed=7, cost_model=tiny_cost_model(),
            policy=DegradationPolicy())
        profiler = profile(engine.process)
        report = engine.cold_start(restorer=restorer)
        assert report.degradation is None
        assert report.stage_durations == unprofiled.stage_durations
        # first-layer triggering captures the first layer's nodes; the
        # rest are eager (the triggering forward and the warm-up)
        assert profiler.captured_launches == artifact.first_layer_nodes == 11
        assert profiler.eager_launches == 33

    def test_allocation_hooks_refuse_a_replay(self, tiny2l_artifact):
        from repro.core.interception import TraceInterceptor
        from repro.errors import InvalidValueError
        artifact, _report = tiny2l_artifact
        engine = LLMEngine("Tiny-2L", Strategy.MEDUSA, seed=7,
                           mode=ExecutionMode.TIMING,
                           cost_model=tiny_cost_model())
        engine.process.add_interceptor(TraceInterceptor())
        with pytest.raises(InvalidValueError, match="allocation interceptor"):
            engine.process.replay(artifact.replay_table())
