"""The engine's serving loop: continuous batching on the simulated clock.

Drives a cold-started :class:`repro.engine.engine.LLMEngine` with the
continuous-batching scheduler: each iteration eagerly prefills newly
admitted sequences, then replays the decode graph for the padded batch (or
launches eagerly without graphs).  Generated token ids come from the
substrate's deterministic sampled output, so runs are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.engine.request import SamplingParams, Sequence, SequenceStatus
from repro.engine.scheduler import ContinuousBatchingScheduler
from repro.errors import EngineError
from repro.simgpu.kernels import PAYLOAD_DIM, hash_stable
from repro.simgpu.process import ExecutionMode


@dataclass
class CompletedSequence:
    sequence: Sequence

    @property
    def token_ids(self) -> List[int]:
        return list(self.sequence.output_token_ids)

    @property
    def ttft(self) -> float:
        return self.sequence.ttft or 0.0

    @property
    def latency(self) -> float:
        return self.sequence.latency or 0.0


class ServingLoop:
    """Continuous-batching serving over one cold-started engine."""

    def __init__(self, engine, max_batch_size: int = 16):
        if engine.block_manager is None:
            raise EngineError("engine must cold-start before serving")
        self.engine = engine
        self.scheduler = ContinuousBatchingScheduler(
            engine.block_manager, max_batch_size=max_batch_size)
        self._iteration = 0
        self._submitted = 0

    # -- intake -----------------------------------------------------------

    def submit(self, prompt_token_ids: List[int],
               sampling: Optional[SamplingParams] = None) -> Sequence:
        sequence = Sequence(prompt_token_ids=list(prompt_token_ids),
                            seq_id=f"seq-{self._submitted}",
                            sampling=sampling or SamplingParams())
        self._submitted += 1
        sequence.arrival_time = self.engine.process.clock.now
        self.scheduler.add(sequence)
        return sequence

    # -- the loop -----------------------------------------------------------------

    def step(self) -> List[CompletedSequence]:
        """Run one continuous-batching iteration; returns completions."""
        engine = self.engine
        plan = self.scheduler.schedule()
        if plan.is_empty:
            return []
        for sequence in plan.prefill:
            engine.prefill(sequence.num_prompt_tokens)
        use_graphs = engine.strategy.uses_cuda_graphs
        self._write_batch_inputs(plan.decode + plan.prefill)
        engine.decode_step(plan.batch_size, use_graphs=use_graphs)
        now = engine.process.clock.now
        completed: List[CompletedSequence] = []
        for sequence in list(plan.prefill) + list(plan.decode):
            sequence.append_token(self._sample_token(sequence), now)
            if sequence.finished:
                self.scheduler.finish(sequence)
                completed.append(CompletedSequence(sequence))
        self._iteration += 1
        return completed

    def run_until_complete(self, max_iterations: int = 100_000
                           ) -> List[CompletedSequence]:
        completed: List[CompletedSequence] = []
        iterations = 0
        while self.scheduler.has_work:
            iterations += 1
            if iterations > max_iterations:
                raise EngineError(
                    f"serving loop exceeded {max_iterations} iterations")
            completed.extend(self.step())
        return completed

    # -- token production ------------------------------------------------------------

    def _write_batch_inputs(self, batch: List[Sequence]) -> None:
        """Feed the last tokens of the batch into the graph input buffer."""
        if self.engine.process.mode is not ExecutionMode.COMPUTE:
            return
        ids = np.zeros((PAYLOAD_DIM, PAYLOAD_DIM))
        for row, sequence in enumerate(batch[:PAYLOAD_DIM]):
            last = (sequence.output_token_ids or
                    sequence.prompt_token_ids)[-1]
            ids[row, :] = last % PAYLOAD_DIM
        self.engine.serving_context().input_buffer.write(ids)

    def _sample_token(self, sequence: Sequence) -> int:
        """Deterministic greedy token for ``sequence``'s next position.

        In COMPUTE mode the substrate's sampled one-hot output seeds the
        token; the sequence identity keeps streams distinct.
        """
        # Identity from prompt + position (not seq_id, which depends on
        # submission order): the same prompt yields the same tokens.
        position = len(sequence.output_token_ids)
        seed = hash_stable(f"{sequence.prompt_token_ids}:{position}")
        if self.engine.process.mode is ExecutionMode.COMPUTE:
            output = self.engine.serving_context().output_buffer.payload
            if output is not None:
                seed ^= int(np.argmax(output))
        return seed % self.engine.config.vocab_size
