"""A passive launch observer on a simulated process.

An interceptor that only overrides ``on_launch`` and sets
``adds_overhead = False`` sees every kernel launch, costs no simulated
time, and may stay attached through a Medusa restore's allocation
replay; one that hooks allocations may not.
"""

from collections import Counter

import pytest

from repro.engine import LLMEngine, Strategy
from repro.models.zoo import get_model_config
from repro.simgpu.process import ExecutionMode, Interceptor

from tests.conftest import tiny_cost_model

TINY = get_model_config("Tiny-2L")


class LaunchCounter(Interceptor):
    """Counts launches, eager and captured, per library."""

    adds_overhead = False

    def __init__(self):
        self.per_library = Counter()
        self.eager_launches = 0
        self.captured_launches = 0

    def on_launch(self, record) -> None:
        self.per_library[record.library] += 1
        if record.captured:
            self.captured_launches += 1
        else:
            self.eager_launches += 1


def observe(process) -> LaunchCounter:
    counter = LaunchCounter()
    process.add_interceptor(counter)
    return counter


class TestPassiveObserver:
    def make_observed_engine(self):
        engine = LLMEngine("Tiny-2L", Strategy.VLLM, seed=44,
                           mode=ExecutionMode.TIMING,
                           cost_model=tiny_cost_model())
        counter = observe(engine.process)
        engine.cold_start()
        return engine, counter

    def test_counts_warmups_and_captures(self):
        _engine, counter = self.make_observed_engine()
        captured_expected = TINY.total_graph_nodes
        assert counter.captured_launches == captured_expected
        # warm-ups (one per batch size) plus the profiling forwarding
        assert counter.eager_launches > captured_expected

    def test_per_library_breakdown(self):
        _engine, counter = self.make_observed_engine()
        assert set(counter.per_library) == {
            "libtorch_sim", "libvllm_sim", "libcublas_sim"}

    def test_observer_adds_no_simulated_overhead(self):
        baseline = LLMEngine("Tiny-2L", Strategy.VLLM, seed=44,
                             mode=ExecutionMode.TIMING,
                             cost_model=tiny_cost_model())
        baseline.cold_start()
        observed, _counter = self.make_observed_engine()
        assert observed.process.clock.now == \
            pytest.approx(baseline.process.clock.now)


class TestObservedMedusaRestore:
    """The observer only watches launches, so it may stay attached through
    a Medusa restore's allocation replay."""

    def test_observes_a_medusa_cold_start(self, tiny2l_artifact):
        from repro.core.online import (medusa_cold_start,
                                       prepare_medusa_cold_start)
        from repro.faults.ladder import DegradationPolicy
        artifact, _report = tiny2l_artifact
        _baseline, unobserved = medusa_cold_start(
            TINY, artifact, seed=7, cost_model=tiny_cost_model())
        engine, restorer = prepare_medusa_cold_start(
            TINY, artifact, seed=7, cost_model=tiny_cost_model(),
            policy=DegradationPolicy())
        counter = observe(engine.process)
        report = engine.cold_start(restorer=restorer)
        assert report.degradation is None
        assert report.stage_durations == unobserved.stage_durations
        # first-layer triggering captures the first layer's nodes; the
        # rest are eager (the triggering forward and the warm-up)
        assert counter.captured_launches == artifact.first_layer_nodes == 11
        assert counter.eager_launches == 33

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
