"""Continuous batching on the pool's serving instance.

The instance is the one model of request serving after a cold start:
each iteration admits waiting requests up to the batch cap, paying their
eager prefill, then decodes one token for every running sequence.  These
tests drive it step by step, as the pool does, and check admission order,
completion, step pricing, lazy capture and the decode bookkeeping.
"""

import pytest

from repro.models.zoo import paper_model_names
from repro.serverless.cluster import ModelDeployment
from repro.serverless.costs import ServingCostModel
from repro.serverless.instance import BACKGROUND_TAIL_PENALTY, Instance
from repro.serverless.workload import Request


@pytest.fixture(scope="module")
def costs():
    return ServingCostModel("Llama2-7B")


def request(rid, arrival=0.0, prompt=100, output=3):
    return Request(request_id=rid, arrival_time=arrival,
                   prompt_tokens=prompt, output_tokens=output)


def make(costs, max_running=4, graphs=True, deferred=False, cold=0.0):
    config = ModelDeployment(name="m", costs=costs, cold_start_latency=cold,
                             max_running=max_running, use_cuda_graphs=graphs,
                             deferred_capture=deferred)
    return Instance(config, launched_at=0.0, cold_start_latency=cold)


def drain(instance, now=0.0, limit=10_000):
    """Step until the instance is idle; return its step results."""
    results = []
    while instance.has_work:
        assert len(results) < limit, "instance never drained"
        result = instance.run_step(now)
        now += result.duration
        results.append(result)
    return results


def completions(results):
    return [done for result in results for done in result.completed]


def admitted(result):
    return [req.request_id for req, _ttft in result.ttfts]


MIXED = [request(rid, arrival=0.01 * rid, prompt=40 + 13 * rid,
                 output=1 + (rid * 5) % 9) for rid in range(9)]


class TestAdmission:
    def test_admits_in_arrival_order(self, costs):
        instance = make(costs, max_running=2)
        for rid in range(5):
            instance.enqueue(request(rid))
        assert admitted(instance.run_step(0.0)) == [0, 1]
        assert [req.request_id for req in instance.waiting] == [2, 3, 4]

    def test_full_batch_admits_nothing(self, costs):
        instance = make(costs, max_running=2)
        for rid in range(2):
            instance.enqueue(request(rid, output=10))
        now = instance.run_step(0.0).duration
        instance.enqueue(request(2))
        result = instance.run_step(now)
        assert result.ttfts == []
        assert [req.request_id for req in instance.waiting] == [2]

    def test_a_completion_frees_its_slot_for_the_next_step(self, costs):
        """Admission runs before decode, so a slot freed by a completion
        is taken at the step after it."""
        instance = make(costs, max_running=1)
        instance.enqueue(request(0, output=2))
        instance.enqueue(request(1, output=2))
        results = drain(instance)
        assert [admitted(result) for result in results] == \
            [[0], [], [1], []]
        assert [[done.request.request_id for done in result.completed]
                for result in results] == [[], [0], [], [1]]

    def test_batch_cap_one_serves_requests_one_after_another(self, costs):
        instance = make(costs, max_running=1)
        for rid in range(3):
            instance.enqueue(request(rid, output=2))
        done = completions(drain(instance))
        assert [d.request.request_id for d in done] == [0, 1, 2]
        # Each request's first token comes after the previous one ends.
        for earlier, later in zip(done, done[1:]):
            assert later.request.arrival_time + later.ttft > \
                earlier.completion_time

    def test_load_counts_waiting_and_running(self, costs):
        instance = make(costs, max_running=2)
        for rid in range(3):
            instance.enqueue(request(rid, output=4))
        assert instance.load == 3
        instance.run_step(0.0)
        assert (len(instance.running), len(instance.waiting)) == (2, 1)
        assert instance.load == 3

    def test_has_work_until_the_last_completion(self, costs):
        instance = make(costs)
        assert not instance.has_work
        instance.enqueue(request(0, output=2))
        assert instance.has_work
        now = instance.run_step(0.0).duration
        assert instance.has_work
        instance.run_step(now)
        assert not instance.has_work


class TestCompletion:
    @pytest.mark.parametrize("max_running", [1, 2, 4, 14])
    def test_completes_every_request_once(self, costs, max_running):
        instance = make(costs, max_running=max_running)
        for req in MIXED:
            instance.enqueue(req)
        done = completions(drain(instance))
        assert sorted(d.request.request_id for d in done) == \
            [req.request_id for req in MIXED]

    @pytest.mark.parametrize("output", [1, 2, 3, 7])
    def test_a_request_takes_one_step_per_output_token(self, costs, output):
        instance = make(costs)
        instance.enqueue(request(0, output=output))
        results = drain(instance)
        assert len(results) == output
        assert len(results[-1].completed) == 1

    def test_zero_output_tokens_finish_like_one(self, costs):
        """The prefill step always yields the first token."""
        instance = make(costs)
        instance.enqueue(request(0, output=0))
        (result,) = drain(instance)
        (done,) = result.completed
        assert done.latency == done.ttft

    def test_single_token_request_latency_is_its_ttft(self, costs):
        instance = make(costs)
        instance.enqueue(request(0, arrival=0.0, output=1))
        (result,) = drain(instance, now=0.5)
        (done,) = result.completed
        assert done.ttft == done.latency == done.completion_time

    def test_latency_never_below_ttft(self, costs):
        instance = make(costs, max_running=3)
        for req in MIXED:
            instance.enqueue(req)
        for done in completions(drain(instance)):
            assert done.latency >= done.ttft > 0

    def test_completion_time_is_the_step_end(self, costs):
        instance = make(costs, max_running=3)
        for req in MIXED:
            instance.enqueue(req)
        now = 0.0
        while instance.has_work:
            result = instance.run_step(now)
            now += result.duration
            for done in result.completed:
                assert done.completion_time == now

    def test_same_step_completions_keep_admission_order(self, costs):
        instance = make(costs)
        for rid in (4, 2, 7):
            instance.enqueue(request(rid, output=3))
        results = drain(instance)
        assert [d.request.request_id for d in results[-1].completed] == \
            [4, 2, 7]

    def test_decode_bookkeeping_empties_when_drained(self, costs):
        """Every admitted context is released by its completion."""
        instance = make(costs, max_running=3)
        for req in MIXED:
            instance.enqueue(req)
        drain(instance)
        assert instance.running == []
        assert instance._context_sum == 0
        assert instance._finishing == {}


class TestStepPricing:
    def test_first_step_prices_prefills_then_decode(self, costs):
        instance = make(costs)
        instance.enqueue(request(0, prompt=100))
        instance.enqueue(request(1, prompt=50))
        result = instance.run_step(0.0)
        expected = 0.0
        expected += costs.prefill_time(100)
        expected += costs.prefill_time(50)
        # Contexts after the prefill token: 101 and 51.
        expected += costs.decode_step_time(2, 152 / 2, True)
        assert result.duration == expected
        assert result.background_contention == 0.0

    def test_decode_steps_price_the_context_before_their_token(self, costs):
        """A step's decode reads the context every earlier step left:
        the token it generates counts from the next step on."""
        instance = make(costs)
        instance.enqueue(request(0, prompt=100, output=5))
        instance.enqueue(request(1, prompt=50, output=5))
        now = instance.run_step(0.0).duration
        second = instance.run_step(now)
        third = instance.run_step(now + second.duration)
        assert second.ttfts == third.ttfts == []
        assert second.duration == costs.decode_step_time(2, 152 / 2, True)
        assert third.duration == costs.decode_step_time(2, 154 / 2, True)

    def test_ttft_is_measured_from_arrival(self, costs):
        instance = make(costs)
        instance.enqueue(request(0, arrival=0.25))
        result = instance.run_step(1.0)
        ((_req, ttft),) = result.ttfts
        assert ttft == 1.0 + result.duration - 0.25

    def test_busy_time_sums_the_step_durations(self, costs):
        instance = make(costs, max_running=3)
        for req in MIXED:
            instance.enqueue(req)
        results = drain(instance)
        busy = 0.0
        end = 0.0
        for result in results:
            busy += result.duration
            end += result.duration
        assert instance.busy_time == busy
        assert instance.last_busy_at == end

    def test_eager_instance_serves_slower(self, costs):
        ends = {}
        for graphs in (True, False):
            instance = make(costs, graphs=graphs)
            for req in MIXED:
                instance.enqueue(req)
            ends[graphs] = max(d.completion_time
                               for d in completions(drain(instance)))
        assert ends[True] < ends[False]

    def test_fresh_instances_serve_identically(self, costs):
        runs = []
        for _ in range(2):
            instance = make(costs, max_running=3)
            for req in MIXED:
                instance.enqueue(req)
            runs.append([(result.duration,
                          [(d.request.request_id, d.ttft, d.completion_time)
                           for d in result.completed])
                         for result in drain(instance)])
        assert runs[0] == runs[1]

    def test_steps_before_readiness_pay_the_tail_penalty(self, costs):
        """Until the restore tail ends (readiness, for a scalar cold
        start) a step contends with it."""
        plain = make(costs)
        early = make(costs, cold=2.0)
        plain.enqueue(request(0))
        early.enqueue(request(0))
        base = plain.run_step(0.0).duration
        result = early.run_step(1.0)
        assert result.background_contention == base * BACKGROUND_TAIL_PENALTY
        assert result.duration == base + base * BACKGROUND_TAIL_PENALTY

    @pytest.mark.parametrize("model", paper_model_names())
    def test_graphs_shorten_serving_on_every_paper_model(self, model):
        """§2.4: graph replay speeds up decode for every model."""
        model_costs = ServingCostModel(model)
        ends = {}
        for graphs in (True, False):
            instance = make(model_costs, graphs=graphs)
            for req in MIXED[:4]:
                instance.enqueue(req)
            ends[graphs] = max(d.completion_time
                               for d in completions(drain(instance)))
        assert ends[True] < ends[False]


class TestDeferredCapture:
    """§2.4: a lazily capturing instance pays each padded batch size's
    capture on the first step that needs it."""

    def first_step(self, costs, deferred, graphs=True, batch=1):
        instance = make(costs, graphs=graphs, deferred=deferred)
        for rid in range(batch):
            instance.enqueue(request(rid, prompt=60, output=4))
        return instance, instance.run_step(0.0)

    def test_first_batch_size_pays_the_capture(self, costs):
        _, lazy = self.first_step(costs, deferred=True)
        expected = 0.0
        expected += costs.prefill_time(60)
        expected += costs.deferred_capture_penalty(1)
        expected += costs.decode_step_time(1, 61 / 1, True)
        assert lazy.duration == expected

    def test_a_captured_size_is_not_captured_again(self, costs):
        lazy, first = self.first_step(costs, deferred=True)
        eager_capture, plain_first = self.first_step(costs, deferred=False)
        assert first.duration > plain_first.duration
        assert lazy.run_step(first.duration).duration == \
            eager_capture.run_step(plain_first.duration).duration

    def test_a_new_padded_size_pays_again(self, costs):
        instance, first = self.first_step(costs, deferred=True)
        for rid in range(1, 3):
            instance.enqueue(request(rid, prompt=60, output=4))
        second = instance.run_step(first.duration)
        expected = 0.0
        expected += costs.prefill_time(60)
        expected += costs.prefill_time(60)
        # Padded size 4 is new: 3 running sequences pad to it.
        expected += costs.deferred_capture_penalty(3)
        expected += costs.decode_step_time(3, (61 + 61 + 61) / 3, True)
        assert second.duration == expected

    def test_sizes_padding_alike_share_one_capture(self, costs):
        """Batches of 3 and 4 both replay the size-4 graph."""
        instance, first = self.first_step(costs, deferred=True, batch=3)
        instance.enqueue(request(3, prompt=60, output=4))
        second = instance.run_step(first.duration)
        expected = 0.0
        expected += costs.prefill_time(60)
        expected += costs.decode_step_time(4, (61 * 3 + 61) / 4, True)
        assert second.duration == expected

    def test_eager_instance_never_captures(self, costs):
        _, lazy = self.first_step(costs, deferred=True, graphs=False)
        _, plain = self.first_step(costs, deferred=False, graphs=False)
        assert lazy.duration == plain.duration


class TestSilentRuns:
    def test_run_ahead_declines_when_the_next_step_completes(self, costs):
        instance = make(costs)
        instance.enqueue(request(0, output=2))
        end = instance.run_step(0.0).duration
        assert instance.run_ahead(end) is None

    def test_run_ahead_ends_where_stepping_would(self, costs):
        stepped, ahead = make(costs), make(costs)
        for instance in (stepped, ahead):
            instance.enqueue(request(0, prompt=80, output=6))
            instance.enqueue(request(1, prompt=30, output=9))
        ahead.run_step(0.0)
        silent = ahead.run_step(ahead.last_busy_at)
        assert silent.ttfts == silent.completed == []
        end = ahead.run_ahead(ahead.last_busy_at)
        # Steps 2-4 run ahead; step 5 completes request 0.
        now = 0.0
        for _ in range(5):
            now += stepped.run_step(now).duration
        assert end == now == stepped.last_busy_at
        assert ahead.busy_time == stepped.busy_time
        assert ahead._steps == stepped._steps
        assert ahead._context_sum == stepped._context_sum

    def test_cut_run_returns_to_the_step_in_flight(self, costs):
        instance = make(costs)
        instance.enqueue(request(0, prompt=80, output=8))
        first = instance.run_step(0.0).duration
        second = first + instance.run_step(first).duration
        end = instance.run_ahead(second)
        assert end is not None and end > second
        # A request arriving just after the run starts finds step 2 in
        # flight: the state goes back to that step's end.
        cut = instance.cut_run(second + 1e-9, ended_at_now=True)
        assert second < cut < end
        assert instance.last_busy_at == cut
        assert instance._steps == 3


class TestColdStartCancellation:
    def test_a_scalar_cold_start_has_no_stage_to_stop_at(self, costs):
        instance = make(costs, cold=3.0)
        assert instance.cancel_cold_start(1.0) is None
        assert not instance.retired

    def test_a_ready_instance_cannot_cancel(self, costs):
        instance = make(costs, cold=3.0)
        assert instance.cancel_cold_start(3.0) is None
        assert not instance.cancelled
