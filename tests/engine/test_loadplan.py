"""LoadPlan scheduler tests: golden equivalence with the legacy composition.

The pre-refactor engine composed each strategy's timeline with closed-form
per-strategy math.  Those functions are copied here verbatim as a
test-local *oracle*: the declarative plans must place every stage at
byte-identical (exact ``==``) start/end instants, both on the paper's
published durations and on live engine cold starts.
"""

import pytest

from repro.engine import Lane, LLMEngine, Strategy
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
    ScheduledStage,
    Timeline,
)
from repro.engine.strategies import plan_for, register_plan, registered_plans
from repro.errors import EngineError
from repro.simgpu.process import ExecutionMode

from tests.conftest import tiny_cost_model
from tests.timelines import chain_timeline

#: The paper's Qwen1.5-4B stage durations (Figure 8a).
PAPER = {
    STRUCTURE: 0.85,
    WEIGHTS: 0.39,
    TOKENIZER: 0.21,
    KV_INIT: 0.50,
    CAPTURE: 0.90,
}

MEDUSA_PAPER = {
    STRUCTURE: 0.85,
    WEIGHTS: 0.39,
    TOKENIZER: 0.21,
    KV_INIT: 0.02,
    MEDUSA_WARMUP: 0.15,
    MEDUSA_RESTORE: 0.40,
}

INTERFERENCE = 0.08


# ---------------------------------------------------------------------------
# The legacy closed-form composition, kept verbatim as the golden oracle.
# ---------------------------------------------------------------------------

def _oracle_sequential(strategy, durations):
    order = [STRUCTURE, WEIGHTS, TOKENIZER, KV_INIT]
    if strategy in (Strategy.VLLM, Strategy.VLLM_ASYNC):
        order.append(CAPTURE)
    stages = []
    clock = 0.0
    for name in order:
        duration = durations.get(name, 0.0)
        stages.append((name, clock, clock + duration))
        clock += duration
    return stages


def _oracle_async(durations, interference_penalty):
    t0 = durations[STRUCTURE]
    stages = [(STRUCTURE, 0.0, t0)]
    tokenizer_end = t0 + durations[TOKENIZER]
    stages.append((TOKENIZER, t0, tokenizer_end))
    kv_end = tokenizer_end + durations.get(KV_INIT, 0.0)
    stages.append((KV_INIT, tokenizer_end, kv_end))
    weights_duration = durations[WEIGHTS]
    if durations.get(KV_INIT, 0.0) > 0:
        weights_duration += interference_penalty
    weights_end = t0 + weights_duration
    stages.append((WEIGHTS, t0, weights_end))
    capture_start = max(weights_end, kv_end)
    capture_end = capture_start + durations.get(CAPTURE, 0.0)
    stages.append((CAPTURE, capture_start, capture_end))
    return stages


def _oracle_medusa(durations):
    t0 = durations[STRUCTURE]
    stages = [(STRUCTURE, 0.0, t0)]
    kv_end = t0 + durations.get(KV_INIT, 0.0)
    stages.append((KV_INIT, t0, kv_end))
    warmup_end = kv_end + durations.get(MEDUSA_WARMUP, 0.0)
    stages.append((MEDUSA_WARMUP, kv_end, warmup_end))
    weights_end = t0 + durations[WEIGHTS]
    stages.append((WEIGHTS, t0, weights_end))
    tokenizer_end = t0 + durations[TOKENIZER]
    stages.append((TOKENIZER, t0, tokenizer_end))
    restore_start = max(warmup_end, weights_end, tokenizer_end)
    restore_end = restore_start + durations.get(MEDUSA_RESTORE, 0.0)
    stages.append((MEDUSA_RESTORE, restore_start, restore_end))
    return stages


def oracle_placements(strategy, durations, interference_penalty):
    """Legacy stage placements as ``{name: (start, end)}``."""
    if strategy in (Strategy.VLLM, Strategy.NO_CUDA_GRAPH,
                    Strategy.DEFERRED):
        stages = _oracle_sequential(strategy, durations)
    elif strategy is Strategy.VLLM_ASYNC:
        stages = _oracle_async(durations, interference_penalty)
    elif strategy is Strategy.MEDUSA:
        stages = _oracle_medusa(durations)
    else:  # pragma: no cover - strategies are closed
        raise AssertionError(strategy)
    return {name: (start, end) for name, start, end in stages}


def plan_placements(timeline):
    return {s.name: (s.start, s.end) for s in timeline.stages}


# ---------------------------------------------------------------------------
# Golden equivalence on the paper's closed-form durations
# ---------------------------------------------------------------------------

class TestGoldenEquivalence:
    @pytest.mark.parametrize("strategy", [
        Strategy.VLLM, Strategy.VLLM_ASYNC, Strategy.NO_CUDA_GRAPH,
        Strategy.DEFERRED])
    def test_paper_durations_byte_identical(self, strategy):
        timeline = plan_for(strategy).schedule(
            PAPER, {"weight_kv_interference": INTERFERENCE},
            strategy=strategy)
        assert plan_placements(timeline) == \
            oracle_placements(strategy, PAPER, INTERFERENCE)

    def test_medusa_paper_durations_byte_identical(self):
        timeline = plan_for(Strategy.MEDUSA).schedule(
            MEDUSA_PAPER, {"weight_kv_interference": INTERFERENCE},
            strategy=Strategy.MEDUSA)
        assert plan_placements(timeline) == \
            oracle_placements(Strategy.MEDUSA, MEDUSA_PAPER, INTERFERENCE)

    def test_async_zero_kv_matches_oracle_exactly(self):
        """The contention edge case: no KV stage -> no penalty, both sides."""
        durations = dict(PAPER)
        durations[KV_INIT] = 0.0
        timeline = plan_for(Strategy.VLLM_ASYNC).schedule(
            durations, {"weight_kv_interference": INTERFERENCE},
            strategy=Strategy.VLLM_ASYNC)
        assert plan_placements(timeline) == \
            oracle_placements(Strategy.VLLM_ASYNC, durations, INTERFERENCE)

    @pytest.mark.parametrize("strategy", [
        Strategy.VLLM, Strategy.VLLM_ASYNC, Strategy.NO_CUDA_GRAPH,
        Strategy.DEFERRED])
    def test_live_cold_start_byte_identical(self, strategy):
        """A real engine cold start places stages exactly like the oracle."""
        engine = LLMEngine("Tiny-2L", strategy, seed=31,
                           mode=ExecutionMode.COMPUTE,
                           cost_model=tiny_cost_model())
        report = engine.cold_start()
        penalty = engine.cost_model.contention_penalty(
            "weight_kv_interference")
        assert plan_placements(report.timeline) == \
            oracle_placements(strategy, report.stage_durations, penalty)

    def test_live_medusa_byte_identical(self, tiny2l_artifact):
        from repro.core.online import medusa_cold_start
        artifact, _ = tiny2l_artifact
        engine, report = medusa_cold_start(
            "Tiny-2L", artifact, seed=32, mode=ExecutionMode.COMPUTE,
            cost_model=tiny_cost_model())
        penalty = engine.cost_model.contention_penalty(
            "weight_kv_interference")
        assert plan_placements(report.timeline) == \
            oracle_placements(Strategy.MEDUSA, report.stage_durations,
                              penalty)


# ---------------------------------------------------------------------------
# The purely declarative demonstration plan
# ---------------------------------------------------------------------------

class TestDemonstrationPlan:
    def test_registered(self):
        assert "vllm-eager-tokenizer" in registered_plans()

    def test_tokenizer_overlaps_structure_init(self):
        timeline = plan_for("vllm-eager-tokenizer").schedule(PAPER)
        tokenizer = timeline.stage(TOKENIZER)
        structure = timeline.stage(STRUCTURE)
        assert tokenizer.start == 0.0          # DISK lane, no dependencies
        assert tokenizer.start < structure.end
        assert tokenizer.lane == Lane.DISK.label

    def test_beats_vanilla_on_paper_durations(self):
        eager = plan_for("vllm-eager-tokenizer").schedule(PAPER).total
        vanilla = plan_for(Strategy.VLLM).schedule(
            PAPER, {"weight_kv_interference": INTERFERENCE}).total
        assert eager == pytest.approx(vanilla - PAPER[TOKENIZER])

    def test_engine_accepts_plan_override(self):
        """A plan plugs into the engine without any engine-side edits."""
        engine = LLMEngine("Tiny-2L", Strategy.VLLM, seed=33,
                           mode=ExecutionMode.COMPUTE,
                           cost_model=tiny_cost_model(),
                           plan=plan_for("vllm-eager-tokenizer"))
        report = engine.cold_start()
        assert report.timeline.plan == "vllm-eager-tokenizer"
        assert report.timeline.stage(TOKENIZER).start == 0.0
        baseline = LLMEngine("Tiny-2L", Strategy.VLLM, seed=33,
                             mode=ExecutionMode.COMPUTE,
                             cost_model=tiny_cost_model()).cold_start()
        assert report.loading_time < baseline.loading_time


# ---------------------------------------------------------------------------
# Scheduler behaviors: contention, critical path, lanes
# ---------------------------------------------------------------------------

class TestScheduler:
    def test_contention_penalty_resolved_from_cost_model(self):
        cm = tiny_cost_model()
        timeline = plan_for(Strategy.VLLM_ASYNC).schedule(PAPER, cm)
        assert timeline.stage(WEIGHTS).duration == pytest.approx(
            PAPER[WEIGHTS] + cm.weight_kv_interference)

    def test_contention_without_penalty_source_rejected(self):
        with pytest.raises(EngineError, match="contention penalty"):
            plan_for(Strategy.VLLM_ASYNC).schedule(PAPER)

    def test_critical_path_sums_to_total(self):
        for key in ("vllm", "vllm-async", "medusa", "vllm-eager-tokenizer"):
            durations = MEDUSA_PAPER if key == "medusa" else PAPER
            timeline = plan_for(key).schedule(
                durations, {"weight_kv_interference": INTERFERENCE})
            critical = [s for s in timeline.stages if s.critical]
            assert critical, key
            assert sum(s.duration for s in critical) == \
                pytest.approx(timeline.total), key

    def test_sequential_plan_is_all_critical(self):
        timeline = plan_for(Strategy.VLLM).schedule(PAPER)
        assert all(stage.critical for stage in timeline.stages)

    def test_async_overlapped_branch_not_critical(self):
        timeline = plan_for(Strategy.VLLM_ASYNC).schedule(
            PAPER, {"weight_kv_interference": INTERFERENCE})
        # KV-init chain (0.85+0.21+0.50=1.56) dominates weights (0.85+0.47).
        assert timeline.stage(WEIGHTS).critical is False
        assert timeline.stage(KV_INIT).critical is True

    def test_stages_carry_lanes(self):
        timeline = plan_for(Strategy.MEDUSA).schedule(MEDUSA_PAPER)
        assert timeline.stage(WEIGHTS).lane == Lane.PCIE.label
        assert timeline.stage(STRUCTURE).lane == Lane.CPU.label
        assert timeline.stage(MEDUSA_RESTORE).lane == Lane.GPU_COMPUTE.label

    def test_missing_required_duration_rejected(self):
        with pytest.raises(EngineError, match="missing stage durations"):
            plan_for(Strategy.VLLM).schedule({STRUCTURE: 1.0})

    def test_negative_duration_rejected(self):
        with pytest.raises(EngineError, match="negative"):
            plan_for(Strategy.VLLM).schedule(dict(PAPER, capture=-1.0))


# ---------------------------------------------------------------------------
# Plan validation and registry
# ---------------------------------------------------------------------------

class TestPlanValidation:
    def test_empty_plan_rejected(self):
        with pytest.raises(EngineError, match="no stages"):
            LoadPlan("empty", ())

    def test_duplicate_stage_rejected(self):
        with pytest.raises(EngineError, match="duplicate"):
            LoadPlan("dup", (PlanStage("a", Lane.CPU),
                             PlanStage("a", Lane.CPU)))

    def test_forward_dependency_rejected(self):
        with pytest.raises(EngineError, match="topological"):
            LoadPlan("fwd", (PlanStage("a", Lane.CPU, deps=("b",)),
                             PlanStage("b", Lane.CPU)))

    def test_self_dependency_rejected(self):
        with pytest.raises(EngineError, match="itself"):
            LoadPlan("self", (PlanStage("a", Lane.CPU, deps=("a",)),))

    def test_non_lane_rejected(self):
        with pytest.raises(EngineError, match="lane"):
            PlanStage("a", "cpu")

    def test_unknown_plan_rejected(self):
        with pytest.raises(EngineError, match="no LoadPlan named"):
            plan_for("not-a-plan")

    def test_duplicate_registration_rejected(self):
        plan = LoadPlan("vllm", (PlanStage("a", Lane.CPU),))
        with pytest.raises(EngineError, match="already registered"):
            register_plan(plan)

    def test_plan_stage_lookup(self):
        plan = plan_for(Strategy.MEDUSA)
        assert plan.stage(KV_INIT).action == "restore_kv"
        assert KV_INIT in plan
        assert "nope" not in plan
        with pytest.raises(EngineError, match="available"):
            plan.stage("nope")


class TestTimelineIndex:
    def test_miss_lists_available_stages(self):
        timeline = chain_timeline(
            ScheduledStage("a", 0.0, 1.0, lane="cpu"),
            ScheduledStage("b", 1.0, 2.0, lane="cpu"))
        with pytest.raises(EngineError, match=r"available: a, b"):
            timeline.stage("c")

    def test_empty_timeline_miss(self):
        with pytest.raises(EngineError, match="<none>"):
            Timeline(None, [], "empty", {}).stage("a")


class TestBackgroundStages:
    """Pipelined background stages: off the critical path, behind ready."""

    def _plan(self):
        return LoadPlan("bg-test", (
            PlanStage("a", Lane.CPU, required=True),
            PlanStage("b", Lane.GPU_COMPUTE, deps=("a",), required=True),
            PlanStage("tail1", Lane.GPU_COMPUTE, deps=("b",),
                      background=True),
            PlanStage("tail2", Lane.GPU_COMPUTE, deps=("tail1",),
                      background=True),
        ))

    def test_ready_excludes_background_tail(self):
        timeline = self._plan().schedule(
            {"a": 1.0, "b": 0.5, "tail1": 0.3, "tail2": 0.2})
        assert timeline.ready == pytest.approx(1.5)
        assert timeline.total == pytest.approx(2.0)

    def test_background_never_critical(self):
        timeline = self._plan().schedule(
            {"a": 1.0, "b": 0.5, "tail1": 0.3, "tail2": 0.2})
        flags = {s.name: (s.critical, s.background) for s in timeline.stages}
        assert flags["a"] == (True, False)
        assert flags["b"] == (True, False)
        assert flags["tail1"] == (False, True)
        assert flags["tail2"] == (False, True)

    def test_foreground_only_plan_ready_equals_total(self):
        plan = LoadPlan("fg-test", (PlanStage("a", Lane.CPU, required=True),))
        timeline = plan.schedule({"a": 1.0})
        assert timeline.ready == timeline.total == pytest.approx(1.0)

    def test_pipelined_medusa_plan_shape(self):
        from repro.engine.loadplan import (
            FETCH_ARTIFACT,
            REPLAY_ALLOC,
            restore_graph_stage,
        )
        from repro.engine.strategies import pipelined_medusa_plan
        plan = pipelined_medusa_plan([1, 2, 4, 8])
        assert FETCH_ARTIFACT in plan
        assert REPLAY_ALLOC in plan
        assert not plan.stage(restore_graph_stage(8)).background
        for batch in (4, 2, 1):
            assert plan.stage(restore_graph_stage(batch)).background
