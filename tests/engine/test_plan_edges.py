"""Edge-case coverage for LoadPlan scheduling: the degraded-ladder
append anchor, DAG-derived bubbles, zero-duration contention partners,
background-only plans, and ready-vs-total on mixed plans."""

import pytest

from repro.engine.lanes import Lane
from repro.engine.loadplan import (
    CAPTURE,
    FETCH_ARTIFACT,
    KV_INIT,
    MEDUSA_WARMUP,
    REPLAY_ALLOC,
    STRUCTURE,
    TOKENIZER,
    WEIGHTS,
    LoadPlan,
    PlanStage,
    ScheduledStage,
    append_stages,
    restore_graph_stage,
)
from repro.engine.strategies import (
    Strategy,
    pipelined_medusa_plan,
    plan_for,
)
from repro.faults.ladder import DEGRADED_LADDER_STAGES
from tests.timelines import chain_timeline

LADDER = [stage.name for stage in DEGRADED_LADDER_STAGES]

_EPS = 1e-9
RG8 = restore_graph_stage(8)
RG4 = restore_graph_stage(4)
RG2 = restore_graph_stage(2)
RG1 = restore_graph_stage(1)


@pytest.fixture
def pipelined():
    return pipelined_medusa_plan((1, 2, 4, 8), name="edges-pipelined")


# ---------------------------------------------------------------------------
# append_stages: the ladder chains after the ready frontier
# ---------------------------------------------------------------------------

class TestAppendStages:
    def test_ladder_anchors_after_last_foreground_stage(self, pipelined):
        degraded = append_stages(pipelined, DEGRADED_LADDER_STAGES)
        names = [stage.name for stage in degraded.stages]
        anchor = names.index(RG8)
        ladder = LADDER
        # Inserted immediately after the last foreground stage, not at
        # the end of the stage list...
        assert names[anchor + 1:anchor + 1 + len(ladder)] == ladder
        # ...with the background restore tail still declared behind it.
        assert names[-3:] == [RG4, RG2, RG1]
        # Serial chain rooted at the ready frontier.
        assert degraded.stage(ladder[0]).deps == (RG8,)
        for prev, name in zip(ladder, ladder[1:]):
            assert degraded.stage(name).deps == (prev,)

    def test_background_restores_queue_behind_the_ladder(self, pipelined):
        degraded = append_stages(pipelined, DEGRADED_LADDER_STAGES)
        durations = {stage.name: 1.0 for stage in degraded.stages}
        timeline = degraded.schedule(durations,
                                     {"weight_kv_interference": 0.0})
        ladder_end = timeline.stage(LADDER[-1]).end
        # Degradation gates serving readiness...
        assert timeline.ready == ladder_end
        # ...and the background tail yields the GPU lane to it.
        assert timeline.stage(RG4).start >= ladder_end - _EPS
        assert timeline.total == timeline.stage(RG1).end

    def test_all_foreground_plan_appends_at_the_end(self):
        plan = plan_for(Strategy.VLLM)
        degraded = append_stages(plan, DEGRADED_LADDER_STAGES)
        names = [stage.name for stage in degraded.stages]
        assert names[-len(LADDER):] == LADDER
        assert degraded.stage(LADDER[0]).deps == (CAPTURE,)

    def test_appended_stages_keep_lane_and_effects(self, pipelined):
        degraded = append_stages(pipelined, DEGRADED_LADDER_STAGES)
        for declared in DEGRADED_LADDER_STAGES:
            placed = degraded.stage(declared.name)
            assert (placed.lane, placed.reads, placed.writes) == (
                declared.lane, declared.reads, declared.writes)

    def test_empty_names_is_identity(self, pipelined):
        assert append_stages(pipelined, ()) is pipelined


# ---------------------------------------------------------------------------
# Timeline.bubble: derived from the scheduled DAG
# ---------------------------------------------------------------------------

class TestBubble:
    def test_pipelined_plan_reports_its_join_bubble(self):
        plan = pipelined_medusa_plan((1, 2), name="edges-bubble")
        rg_first = restore_graph_stage(2)
        durations = {STRUCTURE: 0.0, FETCH_ARTIFACT: 0.0, WEIGHTS: 1.0,
                     TOKENIZER: 0.0, KV_INIT: 2.0, REPLAY_ALLOC: 0.0,
                     MEDUSA_WARMUP: 1.0, rg_first: 1.0,
                     restore_graph_stage(1): 1.0}
        timeline = plan.schedule(durations)
        # The only foreground stage depending on the weight stream is the
        # first graph restore; it joins at t=3 while weights end at t=1.
        assert timeline.stage(rg_first).start == pytest.approx(3.0)
        assert timeline.bubble() == pytest.approx(2.0)

    def test_bubble_is_zero_when_weights_bound_the_join(self):
        plan = pipelined_medusa_plan((1, 2), name="edges-bubble-zero")
        durations = {STRUCTURE: 0.0, FETCH_ARTIFACT: 0.0, WEIGHTS: 5.0,
                     TOKENIZER: 0.0, KV_INIT: 2.0, REPLAY_ALLOC: 0.0,
                     MEDUSA_WARMUP: 1.0, restore_graph_stage(2): 1.0,
                     restore_graph_stage(1): 1.0}
        assert plan.schedule(durations).bubble() == 0.0

    def test_vllm_async_bubble_matches_legacy_branch_formula(self):
        plan = plan_for(Strategy.VLLM_ASYNC)
        durations = {STRUCTURE: 1.0, WEIGHTS: 2.0, TOKENIZER: 1.0,
                     KV_INIT: 1.5, CAPTURE: 1.0}
        timeline = plan.schedule(durations,
                                 {"weight_kv_interference": 0.25})
        legacy = max(0.0, max(timeline.stage(TOKENIZER).end,
                              timeline.stage(KV_INIT).end)
                     - timeline.stage(WEIGHTS).end)
        assert timeline.bubble() == pytest.approx(legacy)

    def test_no_weights_stage_means_no_bubble(self):
        timeline = chain_timeline(ScheduledStage("only", 0.0, 1.0, lane="cpu"))
        assert timeline.bubble() == 0.0


# ---------------------------------------------------------------------------
# Contention edge cases
# ---------------------------------------------------------------------------

class TestContentionEdges:
    def test_zero_duration_partner_waives_the_penalty(self):
        plan = plan_for(Strategy.VLLM_ASYNC)
        durations = {STRUCTURE: 1.0, WEIGHTS: 2.0, TOKENIZER: 0.5,
                     KV_INIT: 0.0, CAPTURE: 1.0}
        timeline = plan.schedule(durations,
                                 {"weight_kv_interference": 0.75})
        assert timeline.stage(WEIGHTS).duration == pytest.approx(2.0)

    def test_nonzero_partner_applies_the_penalty(self):
        plan = plan_for(Strategy.VLLM_ASYNC)
        durations = {STRUCTURE: 1.0, WEIGHTS: 2.0, TOKENIZER: 0.5,
                     KV_INIT: 0.1, CAPTURE: 1.0}
        timeline = plan.schedule(durations,
                                 {"weight_kv_interference": 0.75})
        assert timeline.stage(WEIGHTS).duration == pytest.approx(2.75)


# ---------------------------------------------------------------------------
# ready vs total
# ---------------------------------------------------------------------------

class TestReadyVsTotal:
    def test_background_only_plan_ready_falls_back_to_total(self):
        plan = LoadPlan("edges-bg-only", (
            PlanStage("tail1", Lane.GPU_COMPUTE, background=True,
                      writes=("g1",)),
            PlanStage("tail2", Lane.GPU_COMPUTE, deps=("tail1",),
                      background=True, writes=("g2",)),
        ))
        timeline = plan.schedule({"tail1": 1.0, "tail2": 2.0})
        assert timeline.total == pytest.approx(3.0)
        assert timeline.ready == timeline.total
        # Background stages are never critical, even with no foreground.
        assert not any(stage.critical for stage in timeline.stages)
        assert timeline.bubble() == 0.0

    def test_mixed_plan_ready_precedes_total(self, pipelined):
        durations = {stage.name: 1.0 for stage in pipelined.stages}
        timeline = pipelined.schedule(durations)
        foreground_end = max(s.end for s in timeline.stages
                             if not s.background)
        assert timeline.ready == foreground_end
        assert timeline.ready == timeline.stage(RG8).end
        assert timeline.total == timeline.stage(RG1).end
        assert timeline.ready < timeline.total
        assert all(not s.critical for s in timeline.stages
                   if s.background)
        # The scheduled timeline carries the declared dependency edges.
        assert timeline.deps[RG8] == pipelined.stage(RG8).deps

    def test_foreground_only_plan_has_ready_equal_total(self):
        plan = plan_for(Strategy.VLLM)
        durations = {stage.name: 1.0 for stage in plan.stages}
        timeline = plan.schedule(durations)
        assert timeline.ready == timeline.total
