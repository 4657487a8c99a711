"""Resource-lane executor tests + cross-validation of the closed forms."""

import pytest
from hypothesis import given, settings, strategies as st

from tests.engine.executor import (
    CPU,
    GPU,
    IO,
    Schedule,
    Task,
    execute,
    strategy_tasks,
)
from repro.engine.strategies import Strategy, plan_for
from repro.errors import EngineError


class TestExecutor:
    def test_sequential_on_one_lane(self):
        schedule = execute([Task("a", 1.0, CPU), Task("b", 2.0, CPU)])
        assert schedule.task("b").start == 1.0
        assert schedule.makespan == 3.0

    def test_parallel_on_different_lanes(self):
        schedule = execute([Task("a", 1.0, CPU), Task("b", 2.0, IO)])
        assert schedule.task("a").start == 0.0
        assert schedule.task("b").start == 0.0
        assert schedule.makespan == 2.0

    def test_dependencies_respected(self):
        schedule = execute([
            Task("a", 1.0, CPU),
            Task("b", 1.0, IO, deps=("a",)),
            Task("c", 1.0, GPU, deps=("b",)),
        ])
        assert schedule.task("c").start == 2.0

    def test_cycle_detected(self):
        with pytest.raises(EngineError):
            execute([Task("a", 1.0, CPU, deps=("b",)),
                     Task("b", 1.0, CPU, deps=("a",))])

    def test_unknown_dependency_rejected(self):
        with pytest.raises(EngineError):
            execute([Task("a", 1.0, CPU, deps=("ghost",))])

    def test_duplicate_names_rejected(self):
        with pytest.raises(EngineError):
            execute([Task("a", 1.0, CPU), Task("a", 1.0, IO)])

    def test_overlap_measurement(self):
        schedule = execute([Task("a", 3.0, CPU), Task("b", 2.0, IO)])
        assert schedule.overlap("a", "b") == 2.0


PAPER = {
    "structure_init": 0.85, "load_weights": 0.39, "load_tokenizer": 0.21,
    "kv_init": 0.50, "capture": 0.90,
}
MEDUSA = {
    "structure_init": 0.85, "load_weights": 0.39, "load_tokenizer": 0.21,
    "kv_init": 0.02, "medusa_warmup": 0.15, "medusa_restore": 0.40,
}


class TestClosedFormsMatchExecutor:
    """The registered LoadPlans must equal the general list scheduler."""

    @pytest.mark.parametrize("strategy,durations", [
        (Strategy.VLLM, PAPER),
        (Strategy.NO_CUDA_GRAPH, PAPER),
        (Strategy.VLLM_ASYNC, PAPER),
        (Strategy.MEDUSA, MEDUSA),
    ])
    def test_makespan_matches(self, strategy, durations):
        timeline = plan_for(strategy).schedule(
            durations, {"weight_kv_interference": 0.08},
            strategy=strategy)
        schedule = execute(strategy_tasks(strategy, durations, 0.08))
        assert timeline.total == pytest.approx(schedule.makespan)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0.0, 5.0), min_size=5, max_size=5))
    def test_async_matches_for_random_durations(self, values):
        durations = dict(zip(
            ("structure_init", "load_weights", "load_tokenizer",
             "kv_init", "capture"), values))
        timeline = plan_for(Strategy.VLLM_ASYNC).schedule(
            durations, {"weight_kv_interference": 0.08},
            strategy=Strategy.VLLM_ASYNC)
        schedule = execute(strategy_tasks(Strategy.VLLM_ASYNC, durations,
                                          0.08))
        assert timeline.total == pytest.approx(schedule.makespan)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0.0, 5.0), min_size=6, max_size=6))
    def test_medusa_matches_for_random_durations(self, values):
        durations = dict(zip(
            ("structure_init", "load_weights", "load_tokenizer",
             "kv_init", "medusa_warmup", "medusa_restore"), values))
        timeline = plan_for(Strategy.MEDUSA).schedule(
            durations, {"weight_kv_interference": 0.08},
            strategy=Strategy.MEDUSA)
        schedule = execute(strategy_tasks(Strategy.MEDUSA, durations, 0.08))
        assert timeline.total == pytest.approx(schedule.makespan)