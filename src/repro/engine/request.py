"""Request/sequence abstractions for the engine's serving loop."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import InvalidValueError


@dataclass(frozen=True)
class SamplingParams:
    """Generation controls (greedy decoding; the substrate is deterministic)."""

    max_tokens: int = 16
    stop_token: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_tokens <= 0:
            raise InvalidValueError("max_tokens must be positive")


class SequenceStatus(enum.Enum):
    """Lifecycle of a sequence inside the scheduler."""

    WAITING = "waiting"
    RUNNING = "running"
    FINISHED = "finished"
    PREEMPTED = "preempted"


@dataclass
class Sequence:
    """One request's generation state inside the engine.

    ``seq_id`` keys the sequence's KV block table, so it must be unique
    among the sequences one scheduler holds; its owner assigns it (a
    :class:`~repro.engine.serving.ServingLoop` numbers its own).
    """

    prompt_token_ids: List[int]
    seq_id: str
    sampling: SamplingParams = field(default_factory=SamplingParams)
    output_token_ids: List[int] = field(default_factory=list)
    status: SequenceStatus = SequenceStatus.WAITING
    arrival_time: float = 0.0
    first_token_time: Optional[float] = None
    finish_time: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.prompt_token_ids:
            raise InvalidValueError("prompt must contain at least one token")

    @property
    def num_prompt_tokens(self) -> int:
        return len(self.prompt_token_ids)

    @property
    def num_total_tokens(self) -> int:
        return self.num_prompt_tokens + len(self.output_token_ids)

    @property
    def finished(self) -> bool:
        return self.status is SequenceStatus.FINISHED

    def append_token(self, token_id: int, now: float) -> None:
        if self.finished:
            raise InvalidValueError(f"{self.seq_id} is already finished")
        self.output_token_ids.append(token_id)
        if self.first_token_time is None:
            self.first_token_time = now
        done = len(self.output_token_ids) >= self.sampling.max_tokens
        if self.sampling.stop_token is not None and \
                token_id == self.sampling.stop_token:
            done = True
        if done:
            self.status = SequenceStatus.FINISHED
            self.finish_time = now

    @property
    def ttft(self) -> Optional[float]:
        if self.first_token_time is None:
            return None
        return self.first_token_time - self.arrival_time

    @property
    def latency(self) -> Optional[float]:
        if self.finish_time is None:
            return None
        return self.finish_time - self.arrival_time
