"""Timeline composition tests: sequential, async overlap, Medusa reorder."""

import pytest

from repro.engine.pipeline import (
    CAPTURE,
    KV_INIT,
    MEDUSA_RESTORE,
    MEDUSA_WARMUP,
    STRUCTURE,
    TOKENIZER,
    WEIGHTS,
)
from repro.engine.strategies import Strategy, plan_for
from repro.errors import EngineError

#: The paper's Qwen1.5-4B stage durations (Figure 8a).
PAPER = {
    STRUCTURE: 0.85,
    WEIGHTS: 0.39,
    TOKENIZER: 0.21,
    KV_INIT: 0.50,
    CAPTURE: 0.90,
}

INTERFERENCE = 0.08


class TestSequential:
    def test_vllm_total_is_sum(self):
        timeline = plan_for(Strategy.VLLM).schedule(
            PAPER, {"weight_kv_interference": INTERFERENCE},
            strategy=Strategy.VLLM)
        assert timeline.total == pytest.approx(2.85)

    def test_stage_order(self):
        timeline = plan_for(Strategy.VLLM).schedule(
            PAPER, {"weight_kv_interference": INTERFERENCE},
            strategy=Strategy.VLLM)
        assert timeline.stage(WEIGHTS).start == \
            pytest.approx(timeline.stage(STRUCTURE).end)
        assert timeline.stage(CAPTURE).start == \
            pytest.approx(timeline.stage(KV_INIT).end)

    def test_no_cuda_graph_drops_capture(self):
        timeline = plan_for(Strategy.NO_CUDA_GRAPH).schedule(
            PAPER, {"weight_kv_interference": INTERFERENCE},
            strategy=Strategy.NO_CUDA_GRAPH)
        assert timeline.total == pytest.approx(2.85 - 0.90)
        with pytest.raises(EngineError):
            timeline.stage(CAPTURE)


class TestAsync:
    def test_matches_paper_13_percent_reduction(self):
        """§7.3: vLLM+ASYNC reduces the loading phase by ~13%."""
        timeline = plan_for(Strategy.VLLM_ASYNC).schedule(
            PAPER, {"weight_kv_interference": INTERFERENCE},
            strategy=Strategy.VLLM_ASYNC)
        reduction = 1 - timeline.total / 2.85
        assert 0.11 < reduction < 0.15

    def test_weights_pay_interference_when_overlapping_profiling(self):
        timeline = plan_for(Strategy.VLLM_ASYNC).schedule(
            PAPER, {"weight_kv_interference": INTERFERENCE},
            strategy=Strategy.VLLM_ASYNC)
        assert timeline.stage(WEIGHTS).duration == \
            pytest.approx(PAPER[WEIGHTS] + INTERFERENCE)

    def test_bubble_matches_paper(self):
        """§7.3: a ~0.26 s bubble the weights stage cannot cover."""
        timeline = plan_for(Strategy.VLLM_ASYNC).schedule(
            PAPER, {"weight_kv_interference": INTERFERENCE},
            strategy=Strategy.VLLM_ASYNC)
        assert 0.2 < timeline.bubble() < 0.3

    def test_capture_waits_for_both_branches(self):
        timeline = plan_for(Strategy.VLLM_ASYNC).schedule(
            PAPER, {"weight_kv_interference": INTERFERENCE},
            strategy=Strategy.VLLM_ASYNC)
        capture = timeline.stage(CAPTURE)
        assert capture.start >= timeline.stage(WEIGHTS).end
        assert capture.start >= timeline.stage(KV_INIT).end

    def test_no_interference_without_kv_stage(self):
        durations = dict(PAPER)
        durations[KV_INIT] = 0.0
        timeline = plan_for(Strategy.VLLM_ASYNC).schedule(
            durations, {"weight_kv_interference": INTERFERENCE},
            strategy=Strategy.VLLM_ASYNC)
        assert timeline.stage(WEIGHTS).duration == pytest.approx(
            PAPER[WEIGHTS])


class TestMedusa:
    MEDUSA = {
        STRUCTURE: 0.85,
        WEIGHTS: 0.39,
        TOKENIZER: 0.21,
        KV_INIT: 0.02,
        MEDUSA_WARMUP: 0.15,
        MEDUSA_RESTORE: 0.40,
    }

    def test_matches_paper_41_percent_reduction(self):
        timeline = plan_for(Strategy.MEDUSA).schedule(
            self.MEDUSA, {"weight_kv_interference": INTERFERENCE},
            strategy=Strategy.MEDUSA)
        reduction = 1 - timeline.total / 2.85
        assert 0.38 < reduction < 0.45

    def test_warmup_overlaps_weights(self):
        timeline = plan_for(Strategy.MEDUSA).schedule(
            self.MEDUSA, {"weight_kv_interference": INTERFERENCE},
            strategy=Strategy.MEDUSA)
        warmup = timeline.stage(MEDUSA_WARMUP)
        weights = timeline.stage(WEIGHTS)
        assert warmup.start < weights.end   # §7.3: runs during the load

    def test_restore_tail_is_serial_after_weights(self):
        timeline = plan_for(Strategy.MEDUSA).schedule(
            self.MEDUSA, {"weight_kv_interference": INTERFERENCE},
            strategy=Strategy.MEDUSA)
        restore = timeline.stage(MEDUSA_RESTORE)
        assert restore.start >= timeline.stage(WEIGHTS).end
        assert restore.start >= timeline.stage(MEDUSA_WARMUP).end

    def test_kv_restore_before_warmup(self):
        timeline = plan_for(Strategy.MEDUSA).schedule(
            self.MEDUSA, {"weight_kv_interference": INTERFERENCE},
            strategy=Strategy.MEDUSA)
        assert timeline.stage(KV_INIT).end <= \
            timeline.stage(MEDUSA_WARMUP).start + 1e-12


class TestValidation:
    def test_missing_stage_rejected(self):
        with pytest.raises(EngineError):
            plan_for(Strategy.VLLM).schedule(
                {STRUCTURE: 1.0}, {"weight_kv_interference": 0.0},
                strategy=Strategy.VLLM)

    def test_unknown_stage_lookup_rejected(self):
        timeline = plan_for(Strategy.VLLM).schedule(
            PAPER, {"weight_kv_interference": INTERFERENCE},
            strategy=Strategy.VLLM)
        with pytest.raises(EngineError):
            timeline.stage("not_a_stage")
