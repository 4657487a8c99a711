"""The constant-cost serving step against the list-scan reference.

``Instance.run_step`` keeps an integer context sum, finish-step buckets
and a padded-batch table instead of re-scanning every running sequence
each step.  This property drives it and :mod:`reference_step` (the
original step and cost formulas) through the same random enqueue/step
schedules and requires, after every step, identical duration bits, the
same ``(request, ttft)`` and completion lists (same request objects, same
order), and the same contention, busy time, last-busy instant, load and
work flag.

A second property drives silent runs: after every silent step the
instance runs ahead to its next completion step (``run_ahead``) and the
run is either left to finish or cut (``cut_run``) at a random instant,
exactly at a step end included.  The reference steps one at a time to
the same step; every step end, busy sum, contention sum, the last-busy
instant, the context sum and the contended step count must agree bit
for bit.  Some runs must start inside the restore tail and cross its
end, and some cuts must land inside a run's contended prefix.
"""

import dataclasses
from collections import Counter

import numpy as np
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import pytest

from repro.errors import SchedulingError
from repro.models.zoo import get_model_config
from repro.serverless import ServingCostModel
from repro.serverless.cluster import ModelDeployment
from repro.serverless.instance import Instance
from repro.serverless.workload import Request
from tests.serverless import reference_step
from tests.serverless.reference_step import ReferenceInstance

#: Full 35-size capture ladders, plus one whose largest capture size (16)
#: the batch cap can exceed.
COSTS = [
    ServingCostModel("Llama2-7B"),
    ServingCostModel("Qwen1.5-0.5B"),
    ServingCostModel(dataclasses.replace(
        get_model_config("Qwen1.5-4B"), capture_batch_sizes=(1, 2, 4, 8, 16))),
]

_requests = st.lists(
    st.tuples(st.integers(1, 5000),
              st.one_of(st.sampled_from([0, 1, 2, 3]), st.integers(0, 40))),
    min_size=0, max_size=6)

#: One op: enqueue a few requests (arriving up to ``lag`` seconds before
#: now), or step after an idle gap.
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("enqueue"), _requests,
                  st.sampled_from([0.0, 0.001, 0.5])),
        st.tuples(st.just("step"), st.sampled_from([0.0, 0.0, 0.02, 1.5]))),
    min_size=1, max_size=60)


def _same_step(new, ref) -> None:
    duration, ttfts, completed, contention = ref
    assert new.duration.hex() == duration.hex()
    assert [(id(request), ttft.hex()) for request, ttft in new.ttfts] == \
        [(id(request), ttft.hex()) for request, ttft in ttfts]
    assert [(id(c.request), c.ttft.hex(), c.completion_time.hex())
            for c in new.completed] == \
        [(id(c.request), c.ttft.hex(), c.completion_time.hex())
         for c in completed]
    assert new.background_contention.hex() == contention.hex()


@settings(max_examples=200, deadline=None)
@given(costs=st.sampled_from(COSTS),
       max_running=st.integers(1, 32),
       use_cuda_graphs=st.booleans(),
       deferred_capture=st.booleans(),
       restore_tail=st.sampled_from([0.0, 0.3, 2.0, 50.0]),
       ops=_ops)
def test_step_matches_list_scan_reference(costs, max_running,
                                          use_cuda_graphs, deferred_capture,
                                          restore_tail, ops):
    config = ModelDeployment(name="m", costs=costs, cold_start_latency=0.0,
                             max_running=max_running,
                             use_cuda_graphs=use_cuda_graphs,
                             deferred_capture=deferred_capture)
    instance = Instance(config, launched_at=0.0, cold_start_latency=0.0)
    instance.restore_tail_until = restore_tail
    reference = ReferenceInstance(costs, config,
                                  restore_tail_until=restore_tail)
    now = 0.0
    request_id = 0
    # Every op, then up to 100 more steps draining what is left.
    for op in list(ops) + [("step", 0.0)] * 100:
        if op[0] == "enqueue":
            _kind, lengths, lag = op
            for prompt, output in lengths:
                request = Request(request_id, max(0.0, now - lag), prompt,
                                  output)
                request_id += 1
                instance.enqueue(request)
                reference.enqueue(request)
        else:
            now += op[1]
            if not reference.has_work:
                with pytest.raises(SchedulingError):
                    instance.run_step(now)
                continue
            _same_step(instance.run_step(now), reference.run_step(now))
            now = reference.last_busy_at
        assert instance.busy_time.hex() == reference.busy_time.hex()
        assert instance.last_busy_at.hex() == reference.last_busy_at.hex()
        assert instance.contended_steps == reference.contended_steps
        assert instance.contention_seconds.hex() == \
            reference.contention_seconds.hex()
        assert instance.load == reference.load
        assert instance.has_work == reference.has_work


@settings(max_examples=300, deadline=None)
@given(costs=st.sampled_from(COSTS), batch=st.integers(0, 600),
       avg_context=st.one_of(st.integers(1, 10**5),
                             st.floats(1.0, 1e5, allow_nan=False)),
       use_graphs=st.booleans(), prompt=st.integers(1, 10**5))
def test_costs_match_reference_formulas(costs, batch, avg_context,
                                        use_graphs, prompt):
    """Batches past 256 reach the compute-bound branch the step above,
    capped at 32 sequences, never prices."""
    assert costs.padded_batch(batch) == \
        reference_step.padded_batch(costs, batch)
    assert costs.decode_step_time(batch, avg_context, use_graphs).hex() == \
        reference_step.decode_step_time(costs, batch, avg_context,
                                        use_graphs).hex()
    assert costs.prefill_time(prompt).hex() == \
        reference_step.prefill_time(costs, prompt).hex()


def _silent(result) -> bool:
    return not (result.ttfts or result.completed)


def _same_state(instance, reference) -> None:
    # Python floats, not numpy scalars: these reach summaries and reprs.
    assert type(instance.busy_time) is float
    assert type(instance.last_busy_at) is float
    assert type(instance.contention_seconds) is float
    assert instance.busy_time.hex() == reference.busy_time.hex()
    assert instance.last_busy_at.hex() == reference.last_busy_at.hex()
    assert instance.contended_steps == reference.contended_steps
    assert instance.contention_seconds.hex() == \
        reference.contention_seconds.hex()
    assert instance._context_sum == sum(sequence.context
                                        for sequence in reference.running)
    assert instance.load == reference.load
    assert instance.has_work == reference.has_work


def test_silent_runs_and_cuts_match_per_step_reference():
    seen = Counter()

    # Seeded: an unseeded search of 200 examples missed runs crossing the
    # tail about one time in five, and st.data() draws cannot be pinned
    # with @example.  This seed's search makes 17 such runs and 65 cuts
    # inside a contended prefix.
    @seed(1)
    @settings(max_examples=200, deadline=None, database=None)
    @given(costs=st.sampled_from(COSTS),
           max_running=st.integers(1, 8),
           use_cuda_graphs=st.booleans(),
           deferred_capture=st.booleans(),
           restore_tail=st.sampled_from([0.0, 0.3, 2.0]),
           data=st.data())
    def check(costs, max_running, use_cuda_graphs, deferred_capture,
              restore_tail, data):
        _check_silent_runs(costs, max_running, use_cuda_graphs,
                           deferred_capture, restore_tail, data, seen)

    check()
    assert seen["contended_runs_crossing_the_tail"] > 0
    assert seen["cuts_inside_the_contended_prefix"] > 0


def _check_silent_runs(costs, max_running, use_cuda_graphs,
                       deferred_capture, restore_tail, data, seen):
    config = ModelDeployment(name="m", costs=costs, cold_start_latency=0.0,
                             max_running=max_running,
                             use_cuda_graphs=use_cuda_graphs,
                             deferred_capture=deferred_capture)
    instance = Instance(config, launched_at=0.0, cold_start_latency=0.0)
    instance.restore_tail_until = restore_tail
    reference = ReferenceInstance(costs, config,
                                  restore_tail_until=restore_tail)
    now = 0.0
    request_id = 0
    for _ in range(data.draw(st.integers(1, 25), label="rounds")):
        for prompt, output in data.draw(_requests, label="enqueue"):
            request = Request(request_id, now, prompt, output)
            request_id += 1
            instance.enqueue(request)
            reference.enqueue(request)
        if not reference.has_work:
            now += 1.0
            continue
        result = instance.run_step(now)
        _same_step(result, reference.run_step(now))
        now = reference.last_busy_at
        run_end = instance.run_ahead(now) if _silent(result) else None
        if run_end is None:
            _same_state(instance, reference)
            continue
        assert type(run_end) is float
        step, _context, batch, ends, busy, contended, contention = \
            instance._run
        assert ends[0] == now
        assert batch == len(reference.running)
        assert contended == reference.contended_steps
        last = len(ends) - 1
        # The run's contended prefix: its first ``prefix`` steps.
        prefix = 0 if contention is None else len(contention) - 1
        if 0 < prefix < last:
            seen["contended_runs_crossing_the_tail"] += 1
        how = data.draw(st.sampled_from(["finish", "at_end", "between"]),
                        label="cut")
        if how == "finish":
            in_flight, cut_at, ended = last, None, False
        else:
            index = data.draw(st.one_of(st.sampled_from([0, last]),
                                        st.integers(0, last)),
                              label="index")
            cut_at = ends[index]
            if how == "between" and index < last:
                cut_at += (ends[index + 1] - cut_at) * data.draw(
                    st.floats(0.0, 1.0), label="fraction")
            # A step ending at the cut instant has completed only when
            # its event sorts first; the run's own last event has not.
            ended = cut_at < ends[last] and data.draw(st.booleans(),
                                                      label="ended")
            returned = instance.cut_run(cut_at, ended)
            assert returned is None or type(returned) is float
        # The reference steps one at a time up to the step in flight.
        steps = 0
        while steps < last and (how == "finish" or now < cut_at
                                or (now == cut_at and ended)):
            duration, ttfts, completed, step_contention = \
                reference.run_step(now)
            assert not (ttfts or completed)
            assert (step_contention > 0) == (steps < prefix)
            steps += 1
            assert (now + duration).hex() == ends[steps].hex()
            assert reference.busy_time.hex() == busy[steps].hex()
            if steps <= prefix:
                assert reference.contention_seconds.hex() == \
                    contention[steps].hex()
            now = reference.last_busy_at
        if how != "finish":
            assert returned == (None if steps == last else ends[steps])
            seen["cuts_inside_the_contended_prefix"] += steps < prefix
        assert instance._steps == step + steps
        _same_state(instance, reference)
    # Drain: both must finish the same work the same way.
    while reference.has_work:
        _same_step(instance.run_step(now), reference.run_step(now))
        now = reference.last_busy_at
        _same_state(instance, reference)


@settings(max_examples=200, deadline=None)
@given(costs=st.sampled_from(COSTS), batch=st.integers(1, 600),
       context_sum=st.integers(1, 10**6),
       steps=st.one_of(st.integers(0, 40), st.integers(0, 2000)),
       use_graphs=st.booleans())
# Llama2-7B at batch 256 turns memory-bound at a mean context near 63:
# this run starts compute-bound and crosses over.
@example(costs=COSTS[0], batch=256, context_sum=256 * 10, steps=2000,
         use_graphs=True)
def test_decode_run_matches_decode_step_time(costs, batch, context_sum,
                                             steps, use_graphs):
    """The array-priced run against the per-step formula, element by
    element, on both sides of the compute-bound crossover."""
    run = costs.decode_run(batch, context_sum, steps, use_graphs)
    assert run.dtype == np.float64 and run.shape == (steps,)
    for index, duration in enumerate(run.tolist()):
        avg_context = (context_sum + index * batch) / batch
        assert duration.hex() == costs.decode_step_time(
            batch, avg_context, use_graphs).hex()
        assert duration.hex() == reference_step.decode_step_time(
            costs, batch, avg_context, use_graphs).hex()
