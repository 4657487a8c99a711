"""Continuous-batching scheduler + serving loop tests."""

import itertools

import pytest

from repro.engine import LLMEngine, Strategy
from repro.engine.kvcache import BlockManager
from repro.engine.request import SamplingParams, Sequence, SequenceStatus
from repro.engine.scheduler import ContinuousBatchingScheduler
from repro.engine.serving import ServingLoop
from repro.errors import (
    EngineError,
    InvalidValueError,
    KVCacheExhaustedError,
    SchedulingError,
)
from repro.simgpu.process import ExecutionMode

from tests.conftest import tiny_cost_model


_seq_ids = itertools.count()


def seq(prompt_len=8, max_tokens=4):
    return Sequence(prompt_token_ids=list(range(1, prompt_len + 1)),
                    seq_id=f"test-{next(_seq_ids)}",
                    sampling=SamplingParams(max_tokens=max_tokens))


class TestSequence:
    def test_empty_prompt_rejected(self):
        with pytest.raises(InvalidValueError):
            Sequence(prompt_token_ids=[], seq_id="empty")

    def test_finishes_at_max_tokens(self):
        sequence = seq(max_tokens=2)
        sequence.append_token(5, now=1.0)
        assert not sequence.finished
        sequence.append_token(6, now=2.0)
        assert sequence.finished
        assert sequence.ttft == 1.0
        assert sequence.finish_time == 2.0

    def test_stop_token_short_circuits(self):
        sequence = Sequence(prompt_token_ids=[1], seq_id="stop",
                            sampling=SamplingParams(max_tokens=10,
                                                    stop_token=99))
        sequence.append_token(99, now=0.5)
        assert sequence.finished

    def test_append_after_finish_rejected(self):
        sequence = seq(max_tokens=1)
        sequence.append_token(1, now=0.0)
        with pytest.raises(InvalidValueError):
            sequence.append_token(2, now=1.0)

    def test_invalid_sampling(self):
        with pytest.raises(InvalidValueError):
            SamplingParams(max_tokens=0)


class TestScheduler:
    def make(self, blocks=32, batch=4):
        return ContinuousBatchingScheduler(BlockManager(blocks, 16),
                                           max_batch_size=batch)

    def test_admits_up_to_batch_cap(self):
        scheduler = self.make(batch=2)
        for _ in range(3):
            scheduler.add(seq())
        plan = scheduler.schedule()
        assert len(plan.prefill) == 2
        assert len(scheduler.waiting) == 1

    def test_admission_respects_kv_blocks(self):
        scheduler = self.make(blocks=2, batch=8)
        scheduler.add(seq(prompt_len=20))    # needs 2 blocks (21 tokens)
        scheduler.add(seq(prompt_len=20))
        plan = scheduler.schedule()
        assert len(plan.prefill) == 1        # second does not fit

    def test_decode_extends_block_tables(self):
        scheduler = self.make()
        sequence = seq(prompt_len=15, max_tokens=8)
        scheduler.add(sequence)
        scheduler.schedule()                 # prefill: 16 tokens -> 1 block
        sequence.append_token(7, now=0.0)
        plan = scheduler.schedule()          # decode: 17 tokens -> 2 blocks
        assert plan.decode == [sequence]
        assert len(scheduler.block_manager.block_table(sequence.seq_id)) == 2

    def test_preemption_on_block_exhaustion(self):
        scheduler = self.make(blocks=2, batch=4)
        first = seq(prompt_len=15, max_tokens=50)
        second = seq(prompt_len=15, max_tokens=50)
        scheduler.add(first)
        scheduler.add(second)
        scheduler.schedule()                 # both admitted: 1 block each
        first.append_token(1, now=0.0)
        second.append_token(1, now=0.0)
        plan = scheduler.schedule()          # both need a 2nd block; 0 free
        assert plan.preempted                # someone went back to waiting
        preempted = plan.preempted[0]
        assert preempted.status is SequenceStatus.WAITING
        assert preempted.output_token_ids == []   # recompute-style

    def test_finish_releases_blocks(self):
        scheduler = self.make()
        sequence = seq()
        scheduler.add(sequence)
        scheduler.schedule()
        free_before = scheduler.block_manager.free_blocks
        scheduler.finish(sequence)
        assert scheduler.block_manager.free_blocks > free_before

    def test_finish_unknown_rejected(self):
        scheduler = self.make()
        with pytest.raises(SchedulingError):
            scheduler.finish(seq())

    def test_add_running_sequence_rejected(self):
        scheduler = self.make()
        sequence = seq()
        sequence.status = SequenceStatus.RUNNING
        with pytest.raises(SchedulingError):
            scheduler.add(sequence)

    def test_never_fitting_prompt_raises_instead_of_spinning(self):
        # 2 blocks * 16 tokens = 32-token cache; a 40-token prompt can
        # never be admitted.  Before the guard, schedule() returned empty
        # plans forever while has_work stayed True — an infinite serving
        # loop on a sequence that never fits.
        scheduler = self.make(blocks=2, batch=4)
        scheduler.add(seq(prompt_len=40))
        with pytest.raises(KVCacheExhaustedError, match="never"):
            scheduler.schedule()
        assert not scheduler.has_work        # the doomed sequence is gone

    def test_never_fitting_prompt_behind_running_work(self):
        # The guard must fire even when other sequences are running (the
        # head-of-queue giant would otherwise starve admission forever).
        scheduler = self.make(blocks=4, batch=4)
        small = seq(prompt_len=8, max_tokens=50)
        scheduler.add(small)
        scheduler.schedule()
        scheduler.add(seq(prompt_len=100))
        with pytest.raises(KVCacheExhaustedError, match="never"):
            scheduler.schedule()
        assert scheduler.running == [small]  # running work is untouched

    def test_tight_but_fitting_prompt_is_not_rejected(self):
        # Exactly cache-sized prompts are a capacity wait, not a
        # never-fits condition — they must stay queued, not raise.
        scheduler = self.make(blocks=2, batch=4)
        blocker = seq(prompt_len=15, max_tokens=50)
        scheduler.add(blocker)
        scheduler.schedule()                 # holds 1 of 2 blocks
        waiter = seq(prompt_len=28)          # 29 tokens -> needs both blocks
        scheduler.add(waiter)
        plan = scheduler.schedule()          # blocked now, fits later
        assert not plan.prefill
        assert scheduler.waiting[0] is waiter
        scheduler.finish(blocker)
        plan = scheduler.schedule()
        assert plan.prefill == [waiter]

    def test_retry_budget_catches_broken_block_accounting(self):
        # A block manager that releases nothing on preemption violates the
        # loop's progress invariant; the budget turns that into an error.
        class LeakyBlockManager(BlockManager):
            def release(self, seq_id):
                pass                         # "frees" nothing

        scheduler = ContinuousBatchingScheduler(LeakyBlockManager(4, 16),
                                                max_batch_size=4)
        sequences = [seq(prompt_len=15, max_tokens=50) for _ in range(4)]
        for sequence in sequences:
            scheduler.add(sequence)
        scheduler.schedule()                 # all admitted: 1 block each
        for sequence in sequences:
            sequence.append_token(1, now=0.0)
        with pytest.raises((SchedulingError, KVCacheExhaustedError)):
            # Every decode needs a 2nd block, preemption frees nothing.
            scheduler.schedule()


class TestServingLoop:
    def make_loop(self, strategy=Strategy.VLLM, seed=81,
                  mode=ExecutionMode.COMPUTE):
        engine = LLMEngine("Tiny-2L", strategy, seed=seed, mode=mode,
                           cost_model=tiny_cost_model())
        engine.cold_start()
        return ServingLoop(engine, max_batch_size=4)

    def test_requires_cold_start(self):
        engine = LLMEngine("Tiny-2L", Strategy.VLLM, seed=82,
                           cost_model=tiny_cost_model())
        with pytest.raises(EngineError):
            ServingLoop(engine)

    def test_completes_all_requests(self):
        loop = self.make_loop()
        submitted = [loop.submit([1, 2, 3], SamplingParams(max_tokens=3))
                     for _ in range(6)]
        completed = loop.run_until_complete()
        assert len(completed) == 6
        assert all(len(c.token_ids) == 3 for c in completed)
        assert all(s.finished for s in submitted)

    def test_ttft_and_latency_recorded(self):
        loop = self.make_loop(seed=83)
        loop.submit([1, 2], SamplingParams(max_tokens=5))
        (completed,) = loop.run_until_complete()
        assert 0 < completed.ttft <= completed.latency

    def test_tokens_within_vocab(self):
        loop = self.make_loop(seed=84)
        loop.submit(loop.engine.tokenizer.encode("hello world"),
                    SamplingParams(max_tokens=4))
        (completed,) = loop.run_until_complete()
        vocab = loop.engine.config.vocab_size
        assert all(0 <= t < vocab for t in completed.token_ids)

    def test_deterministic_across_runs(self):
        outputs = []
        for _ in range(2):
            loop = self.make_loop(seed=85)
            loop.submit([3, 1, 4], SamplingParams(max_tokens=6))
            (completed,) = loop.run_until_complete()
            outputs.append(completed.token_ids)
        assert outputs[0] == outputs[1]

    def test_fresh_loops_hand_out_the_same_ids(self):
        """Ids come from the loop, not from what ran earlier in the
        process."""
        ids = []
        for seed in (88, 89):
            loop = self.make_loop(seed=seed)
            ids.append([loop.submit([1, 2], SamplingParams(max_tokens=2))
                        .seq_id for _ in range(3)])
            loop.run_until_complete()
        assert ids[0] == ids[1] == ["seq-0", "seq-1", "seq-2"]

    def test_serving_without_graphs(self):
        loop = self.make_loop(strategy=Strategy.NO_CUDA_GRAPH, seed=86)
        loop.submit([1], SamplingParams(max_tokens=2))
        completed = loop.run_until_complete()
        assert len(completed) == 1

    def test_timing_mode_serving(self):
        loop = self.make_loop(seed=87, mode=ExecutionMode.TIMING)
        loop.submit([1, 2, 3, 4], SamplingParams(max_tokens=3))
        before = loop.engine.process.clock.now
        completed = loop.run_until_complete()
        assert len(completed) == 1
        assert loop.engine.process.clock.now > before
