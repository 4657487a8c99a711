"""Reference oracle for ``Instance.run_step``: the list-scan serving step.

A copy of the serving step as it was before the constant-cost rewrite:
every running sequence carries its ``generated`` count, each step
recomputes every context, scans the capture batch sizes and filters
``running`` by re-evaluating ``done``.  It prices the step with the
original cost formulas too (also copied here), so the property test in
``test_step_oracle.py`` checks the new step and the new cost model
together against code that shares neither.

The pool-level reference is the per-step path: :func:`per_step_path`
turns silent runs off, so every serving step goes through ``run_step``
and completes with its own kernel event.  :func:`pool_outcome` is what a
pool run must reproduce on either path.
"""

from __future__ import annotations

import contextlib
from collections import deque
from dataclasses import dataclass
from typing import List

from repro.errors import SchedulingError
from repro.serverless.cluster import ModelDeployment
from repro.serverless.instance import (
    BACKGROUND_TAIL_PENALTY,
    CompletedRequest,
    Instance,
)
from repro.serverless.workload import Request

_EPS = 1e-12


def padded_batch(costs, batch_size: int) -> int:
    candidates = [b for b in costs.config.capture_batch_sizes
                  if b >= batch_size]
    return min(candidates) if candidates else \
        max(costs.config.capture_batch_sizes)


def prefill_time(costs, prompt_tokens: int) -> float:
    kernels = costs.config.nodes_for_batch(1)
    return costs.cost_model.eager_step_time(costs.config.param_bytes,
                                            prompt_tokens, kernels)


def decode_step_time(costs, batch_size: int, avg_context: float,
                     use_graphs: bool) -> float:
    cm = costs.cost_model
    gpu = cm.gpu
    effective_batch = padded_batch(costs, batch_size) if use_graphs \
        else batch_size
    compute = (2.0 * costs.config.num_params * effective_batch
               / gpu.effective_flops)
    kv_read = (batch_size * avg_context * costs.config.hidden_size
               * 2 * 2 * costs.config.num_layers)
    memory = ((costs.config.param_bytes + kv_read)
              / gpu.effective_mem_bandwidth)
    gpu_time = max(compute, memory)
    if use_graphs:
        return gpu_time + cm.graph_launch_overhead
    return gpu_time + costs.config.nodes_for_batch(1) * cm.launch_gap


def deferred_capture_penalty(costs, batch_size: int) -> float:
    cm = costs.cost_model
    padded = padded_batch(costs, batch_size)
    kernels = costs.config.nodes_for_batch(padded)
    warm_up = cm.eager_step_time(costs.config.param_bytes, padded, kernels)
    return (warm_up + cm.capture_forward_time(kernels)
            + cm.instantiate_time(kernels))


@dataclass
class _RunningSequence:
    request: Request
    generated: int = 0
    first_token_time: float = 0.0

    @property
    def context(self) -> int:
        return self.request.prompt_tokens + self.generated

    @property
    def done(self) -> bool:
        return self.generated >= self.request.output_tokens


class ReferenceInstance:
    """The serving state ``run_step`` touches, stepped the old way."""

    def __init__(self, costs, config: ModelDeployment,
                 restore_tail_until: float = 0.0):
        self.costs = costs
        self.config = config
        self.waiting = deque()
        self.running: List[_RunningSequence] = []
        self.restore_tail_until = restore_tail_until
        self.last_busy_at = 0.0
        self.busy_time = 0.0
        self.contended_steps = 0
        self.contention_seconds = 0.0
        self._captured_batches: set = set()

    @property
    def load(self) -> int:
        return len(self.waiting) + len(self.running)

    @property
    def has_work(self) -> bool:
        return bool(self.waiting or self.running)

    def enqueue(self, request) -> None:
        self.waiting.append(request)

    def run_step(self, now: float):
        """Returns ``(duration, ttfts, completed, contention)``."""
        if not self.has_work:
            raise SchedulingError("stepped without work")
        duration = 0.0
        admitted: List[_RunningSequence] = []
        while self.waiting and len(self.running) < self.config.max_running:
            request = self.waiting.popleft()
            duration += prefill_time(self.costs, request.prompt_tokens)
            sequence = _RunningSequence(request=request, generated=1)
            self.running.append(sequence)
            admitted.append(sequence)
        if self.running:
            if self.config.deferred_capture and self.config.use_cuda_graphs:
                padded = padded_batch(self.costs, len(self.running))
                if padded not in self._captured_batches:
                    duration += deferred_capture_penalty(self.costs, padded)
                    self._captured_batches.add(padded)
            contexts = [seq.context for seq in self.running]
            duration += decode_step_time(
                self.costs, len(self.running),
                sum(contexts) / len(contexts), self.config.use_cuda_graphs)
            for sequence in self.running:
                if sequence not in admitted:
                    sequence.generated += 1
        contention = 0.0
        if duration > 0 and now < self.restore_tail_until - _EPS:
            contention = duration * BACKGROUND_TAIL_PENALTY
            duration += contention
            self.contended_steps += 1
            self.contention_seconds += contention
        end = now + duration
        for sequence in admitted:
            sequence.first_token_time = end
        ttfts = [(seq.request, end - seq.request.arrival_time)
                 for seq in admitted]
        completed = [CompletedRequest(
                        seq.request,
                        ttft=seq.first_token_time - seq.request.arrival_time,
                        completion_time=end)
                     for seq in self.running if seq.done]
        self.running = [seq for seq in self.running if not seq.done]
        self.last_busy_at = end
        self.busy_time += duration
        return duration, ttfts, completed, contention


@contextlib.contextmanager
def per_step_path():
    """Run every pool built inside the block one serving step at a time:
    ``Instance.run_ahead`` finds nothing to run ahead."""
    original = Instance.run_ahead
    Instance.run_ahead = lambda self, start: None
    try:
        yield
    finally:
        Instance.run_ahead = original


def total_steps(pool) -> int:
    """Serving steps every instance of ``pool`` ran, on either path."""
    return sum(instance._steps for instances in pool.instances.values()
               for instance in instances)


def pool_outcome(pool) -> dict:
    """Everything a pool run observably produced, floats as hex.

    Per model: the summary, every TTFT and latency in record order, and
    the provisioned and busy GPU seconds.  Per instance, in launch order:
    busy time, last busy instant, steps run, retirement instant, and the
    steps and seconds it paid restore-tail contention.
    """
    def hexed(values):
        return [float(value).hex() for value in values]

    models = {
        name: (repr(metrics.summary()), hexed(metrics.ttfts),
               hexed(metrics.latencies),
               metrics.provisioned_gpu_seconds.hex(),
               metrics.busy_gpu_seconds.hex())
        for name, metrics in pool.metrics.items()}
    instances = {
        name: [(instance.busy_time.hex(), instance.last_busy_at.hex(),
                instance._steps,
                repr(getattr(instance, "retired_at", None)),
                instance.contended_steps,
                instance.contention_seconds.hex())
               for instance in pool_instances]
        for name, pool_instances in pool.instances.items()}
    return {"models": models, "instances": instances}
