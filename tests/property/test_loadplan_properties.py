"""Property-based tests of the LoadPlan lane scheduler's invariants.

For every registered plan — and for randomly generated stage DAGs — the
scheduler must produce placements where no stage starts before its
dependencies end, no two stages overlap on one resource lane, and the
critical-path marking traces a zero-slack chain from time zero to the
makespan.  The three paper strategies are additionally checked against the
legacy closed-form composition (the test-local oracle in
``tests.engine.test_loadplan``) on arbitrary durations and on every zoo
model's cost-model-derived durations.
"""

from hypothesis import given, settings, strategies as st

from repro.engine.lanes import Lane
from repro.engine.loadplan import (
    CAPTURE,
    KV_INIT,
    MEDUSA_RESTORE,
    MEDUSA_WARMUP,
    STRUCTURE,
    TOKENIZER,
    WEIGHTS,
    LoadPlan,
    PlanStage,
)
from repro.engine.strategies import Strategy, plan_for, registered_plans
from repro.models.zoo import PAPER_MODELS
from repro.simgpu.costmodel import CostModel

from tests.engine.test_loadplan import oracle_placements, plan_placements

_EPS = 1e-9
_PLAN_KEYS = sorted(registered_plans())

durations_st = st.floats(min_value=0.0, max_value=10.0,
                         allow_nan=False, allow_infinity=False)
penalty_st = st.floats(min_value=0.0, max_value=1.0,
                       allow_nan=False, allow_infinity=False)


def check_invariants(plan: LoadPlan, timeline) -> None:
    """The scheduler invariants every placement must satisfy."""
    stages = {s.name: s for s in timeline.stages}
    assert set(stages) == {s.name for s in plan.stages}

    # 1. No stage starts before time zero or before a dependency ends.
    for declared in plan.stages:
        placed = stages[declared.name]
        assert placed.start >= 0.0
        assert placed.end >= placed.start
        for dep in declared.deps:
            assert stages[dep].end <= placed.start + _EPS, \
                f"{declared.name} started before dependency {dep} ended"

    # 2. Per-lane mutual exclusion: lanes run one stage at a time.
    by_lane = {}
    for declared in plan.stages:
        by_lane.setdefault(declared.lane, []).append(stages[declared.name])
    for lane, lane_stages in by_lane.items():
        lane_stages.sort(key=lambda s: (s.start, s.end))
        for earlier, later in zip(lane_stages, lane_stages[1:]):
            assert earlier.end <= later.start + _EPS, \
                f"lane {lane} overlaps: {earlier.name} / {later.name}"

    # 3. The timeline total is the makespan; ready covers foreground only.
    assert timeline.total == max(s.end for s in timeline.stages)
    foreground = [s for s in timeline.stages if not s.background]
    if foreground:
        assert timeline.ready == max(s.end for s in foreground)

    # 4. Critical marking: every foreground stage ending at the *ready*
    #    instant is critical (background stages never are — they finish
    #    behind serving readiness by design), and every critical stage is
    #    reachable from time zero through a zero-slack chain of critical
    #    stages — so the critical durations along any such chain sum to
    #    the ready makespan.
    critical = [s for s in timeline.stages if s.critical]
    for placed in timeline.stages:
        if placed.background:
            assert not placed.critical, f"{placed.name} is background"
    if foreground:
        assert critical
        for placed in foreground:
            if abs(placed.end - timeline.ready) <= _EPS:
                assert placed.critical, f"{placed.name} ends at ready"
    for placed in critical:
        if placed.start > _EPS:
            assert any(abs(other.end - placed.start) <= _EPS
                       for other in critical if other.name != placed.name), \
                f"critical {placed.name} has no zero-slack predecessor"


class TestRegisteredPlanInvariants:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), penalty=penalty_st)
    def test_every_plan_schedules_validly(self, data, penalty):
        for key in _PLAN_KEYS:
            plan = plan_for(key)
            durations = {stage.name: data.draw(durations_st, label=stage.name)
                         for stage in plan.stages}
            timeline = plan.schedule(
                durations, {"weight_kv_interference": penalty})
            check_invariants(plan, timeline)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), penalty=penalty_st)
    def test_strategies_match_legacy_oracle(self, data, penalty):
        """Arbitrary durations: the plans equal the closed-form math."""
        names = (STRUCTURE, WEIGHTS, TOKENIZER, KV_INIT, CAPTURE,
                 MEDUSA_WARMUP, MEDUSA_RESTORE)
        durations = {name: data.draw(durations_st, label=name)
                     for name in names}
        for strategy in (Strategy.VLLM, Strategy.VLLM_ASYNC,
                         Strategy.MEDUSA, Strategy.NO_CUDA_GRAPH,
                         Strategy.DEFERRED):
            timeline = plan_for(strategy).schedule(
                durations, {"weight_kv_interference": penalty},
                strategy=strategy)
            assert plan_placements(timeline) == \
                oracle_placements(strategy, durations, penalty), strategy


class TestRandomDagInvariants:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_plans_schedule_validly(self, data):
        """Any topologically-declared DAG obeys the scheduler invariants."""
        count = data.draw(st.integers(1, 8), label="count")
        names = [f"s{i}" for i in range(count)]
        stages = []
        for index, name in enumerate(names):
            deps = tuple(data.draw(
                st.sets(st.sampled_from(names[:index])) if index else
                st.just(set()), label=f"deps-{name}"))
            lane = data.draw(st.sampled_from(list(Lane)),
                             label=f"lane-{name}")
            stages.append(PlanStage(name, lane, deps=deps))
        plan = LoadPlan("prop-random", tuple(stages))
        durations = {name: data.draw(durations_st, label=f"dur-{name}")
                     for name in names}
        check_invariants(plan, plan.schedule(durations))


class TestZooModelOracle:
    def test_all_zoo_models_match_legacy_oracle(self):
        """Cost-model-derived durations for every zoo model, all plans."""
        cm = CostModel()
        for config in PAPER_MODELS:
            durations = {
                STRUCTURE: cm.structure_init_time(config.param_bytes),
                WEIGHTS: config.param_bytes / cm.gpu.h2d_bandwidth,
                TOKENIZER: cm.tokenizer_load_time(config.vocab_size),
                KV_INIT: cm.forward_gpu_time(config.param_bytes,
                                             cm.kv_profile_tokens)
                         + cm.kv_block_alloc_time,
                CAPTURE: cm.capture_forward_time(config.total_graph_nodes)
                         + cm.instantiate_time(config.total_graph_nodes),
                MEDUSA_WARMUP: cm.capture_forward_time(
                    config.total_graph_nodes // max(1, config.num_layers)),
                MEDUSA_RESTORE: cm.restore_fill_per_node
                                * config.total_graph_nodes,
            }
            medusa_durations = dict(durations, kv_init=cm.kv_restore_time)
            for strategy in (Strategy.VLLM, Strategy.VLLM_ASYNC,
                             Strategy.NO_CUDA_GRAPH, Strategy.DEFERRED):
                timeline = plan_for(strategy).schedule(
                    durations, cm, strategy=strategy)
                assert plan_placements(timeline) == oracle_placements(
                    strategy, durations, cm.weight_kv_interference), \
                    (config.name, strategy)
            timeline = plan_for(Strategy.MEDUSA).schedule(
                medusa_durations, cm, strategy=Strategy.MEDUSA)
            assert plan_placements(timeline) == oracle_placements(
                Strategy.MEDUSA, medusa_durations,
                cm.weight_kv_interference), config.name
