"""Unit tests for the autoscale policy layer.

Covers the policy registry, each policy's decision logic in isolation,
the idle-tick mechanism's staleness guard, and — the regression the
kernel's tie-break order pins — a request arriving at the *exact* instant
a keep-alive window expires must reach the instance before the
retirement decision runs (arrivals dispatch at priority 0, idle ticks at
priority 4).
"""

import pytest

from repro.errors import InvalidValueError
from repro.serverless import (
    AutoscalePolicy,
    ClusterSimulator,
    ColdCostAwarePolicy,
    HistogramPolicy,
    KeepAlivePolicy,
    ModelDeployment,
    ServingCostModel,
    TargetQueueDelayPolicy,
    autoscaler_names,
    make_autoscaler,
)
from repro.serverless.workload import Request
from repro.sim import EventLoop

_COSTS = ServingCostModel("Qwen1.5-4B")


def _flat_pool(cold_start_latency, initial_instances=0, **pool_kwargs):
    """A two-GPU flat-placement pool serving ``_COSTS``' model."""
    deployment = ModelDeployment(name=_COSTS.config.name, costs=_COSTS,
                                 cold_start_latency=cold_start_latency,
                                 initial_instances=initial_instances)
    return ClusterSimulator(deployment, 2, placement="flat", **pool_kwargs)


class _FakeInstance:
    """The minimal instance surface the scale-down policies consult."""

    def __init__(self, last_busy_at=0.0, launched_at=0.0, ready_at=0.0,
                 waiting=()):
        self.last_busy_at = last_busy_at
        self.launched_at = launched_at
        self.ready_at = ready_at
        self.waiting = list(waiting)
        self.profile = None


class TestRegistry:
    def test_registered_names(self):
        assert autoscaler_names() == ("cold-cost", "histogram",
                                      "keep-alive", "queue-slo")

    def test_make_by_name_seeds_keep_alive(self):
        policy = make_autoscaler("keep-alive", keep_alive=7.5)
        assert isinstance(policy, KeepAlivePolicy)
        assert policy.keep_alive == 7.5

    def test_unknown_name_raises(self):
        with pytest.raises(InvalidValueError):
            make_autoscaler("nope")

    def test_non_spec_raises(self):
        with pytest.raises(InvalidValueError):
            make_autoscaler(42)

    def test_slo_seeds_queue_policy(self):
        policy = make_autoscaler("queue-slo", slo_ttft=0.25)
        assert policy.slo_ttft == 0.25


class TestKeepAlivePolicy:
    def test_retires_exactly_at_the_window(self):
        policy = KeepAlivePolicy(keep_alive=5.0)
        instance = _FakeInstance(last_busy_at=10.0)
        assert not policy.should_retire(None, instance, 14.999)
        assert policy.should_retire(None, instance, 15.0)

    def test_no_idle_ticks(self):
        """The legacy policy must not schedule any extra events."""
        policy = KeepAlivePolicy()
        assert policy.idle_check_delay(None, _FakeInstance(), 0.0) is None

    def test_negative_window_rejected(self):
        with pytest.raises(InvalidValueError):
            KeepAlivePolicy(keep_alive=-1.0)


class TestHistogramPolicy:
    def test_falls_back_to_default_before_warmup(self):
        policy = HistogramPolicy(default_keep_alive=12.0)
        for t in range(HistogramPolicy.warmup):   # one gap short
            policy.on_arrival(None, None, float(t))
        assert policy.predicted_window() == 12.0

    def test_learns_a_quantile_of_observed_gaps(self):
        policy = HistogramPolicy()
        now = 0.0
        for _ in range(20):
            now += 3.0   # every observed gap is 3 s
            policy.on_arrival(None, None, now)
        # All gaps land in bucket 3 (1 s buckets) -> window = (3+1) s,
        # times the 1.25 margin.
        assert policy.predicted_window() == 5.0

    def test_window_clamped_to_max(self):
        policy = HistogramPolicy()
        now = 0.0
        for _ in range(10):
            now += 500.0
            policy.on_arrival(None, None, now)
        assert policy.predicted_window() == HistogramPolicy.max_window == \
            120.0


class TestColdCostAwarePolicy:
    def test_window_scales_with_observed_cold_cost(self):
        policy = ColdCostAwarePolicy()   # cost ratio 3, window <= 60 s
        fast = _FakeInstance(launched_at=0.0, ready_at=0.4,
                             last_busy_at=0.4)
        slow = _FakeInstance(launched_at=0.0, ready_at=8.0,
                             last_busy_at=8.0)
        assert policy._window(None, fast, 1.0) == pytest.approx(1.2)
        assert policy._window(None, slow, 9.0) == pytest.approx(24.0)

    def test_fast_models_retire_sooner(self):
        """The Medusa economics: cheap restores earn short warm windows."""
        policy = ColdCostAwarePolicy()
        fast = _FakeInstance(launched_at=0.0, ready_at=0.4,
                             last_busy_at=1.0)
        assert policy.should_retire(None, fast, 1.0 + 1.3)
        slow = _FakeInstance(launched_at=0.0, ready_at=8.0,
                             last_busy_at=9.0)
        assert not policy.should_retire(None, slow, 9.0 + 1.3)

    def test_warm_launch_uses_default_cost(self):
        policy = ColdCostAwarePolicy()
        warm = _FakeInstance(launched_at=5.0, ready_at=5.0)
        assert policy.cold_cost(warm) == 3.0


class _FakePool:
    """A pool stub exposing only ``_live_instances``."""

    def __init__(self, instances):
        self._instances = instances

    def _live_instances(self, model):
        return self._instances


class TestTargetQueueDelayPolicy:
    def test_no_opinion_on_an_empty_scope(self):
        policy = TargetQueueDelayPolicy(slo_ttft=0.5)
        assert policy.target_instances(_FakePool([]), None, 0.0) == 0

    def test_scales_up_when_backlog_breaches_budget(self):
        policy = TargetQueueDelayPolicy(slo_ttft=0.5)   # 0.08 s each
        busy = _FakeInstance(ready_at=0.0, waiting=[object()] * 10)
        pool = _FakePool([busy])
        assert policy.target_instances(pool, None, 1.0) == 2
        assert policy.decisions["slo_breach_predicted"] == 1

    def test_counts_cold_start_wait_when_nothing_is_ready(self):
        policy = TargetQueueDelayPolicy(slo_ttft=0.5)
        cold = _FakeInstance(ready_at=5.0, waiting=[])
        assert policy.predicted_delay(_FakePool([cold]), None,
                                      1.0) == pytest.approx(4.0)

    def test_within_budget_has_no_opinion(self):
        policy = TargetQueueDelayPolicy(slo_ttft=2.0)
        idle = _FakeInstance(ready_at=0.0, waiting=[])
        assert policy.target_instances(_FakePool([idle]), None, 1.0) == 0

    def test_invalid_slo_rejected(self):
        with pytest.raises(InvalidValueError):
            TargetQueueDelayPolicy(slo_ttft=0.0)


def _request(request_id, arrival):
    return Request(request_id=request_id, arrival_time=arrival,
                   prompt_tokens=100, output_tokens=5)


def _first_idle_window(policy_name):
    """Observe when the first instance goes idle and its policy window."""
    simulator = _flat_pool(1.0, autoscale=policy_name)
    simulator.run([_request(0, 0.0)], horizon=30.0)
    instance = simulator.instances[simulator.model][0]
    policy = make_autoscaler(policy_name)
    window = policy._window(simulator, instance, instance.last_busy_at)
    return instance.last_busy_at, window


class TestEqualTimestampTieBreak:
    """Arrival-before-retire at the exact window-expiry instant.

    ``pool.py`` used to evaluate ``now - last_busy_at >= keep_alive``
    only inside step-done handling; with idle ticks enforcing windows,
    a request arriving at exactly the expiry time races the tick.  The
    kernel's ``(time, priority, seq)`` order settles it: ARRIVAL
    (priority 0) dispatches before IDLE_TICK (priority 4), so the
    request lands, marks the instance busy, and the tick goes stale —
    deterministically, not by insertion luck.
    """

    def test_arrival_at_exact_expiry_beats_retirement(self):
        idle_at, window = _first_idle_window("cold-cost")
        expiry = idle_at + window
        simulator = _flat_pool(1.0, autoscale="cold-cost")
        metrics = simulator.run(
            [_request(0, 0.0), _request(1, expiry)],
            horizon=expiry + 30.0)
        # The co-timed arrival won the tie: it was served warm by the
        # same instance, so no second cold start happened.
        assert metrics.cold_starts == 1
        assert len(metrics.ttfts) == 2
        instance = simulator.instances[simulator.model][0]
        assert getattr(instance, "retired_at", expiry) > expiry

    def test_arrival_after_expiry_finds_the_instance_retired(self):
        idle_at, window = _first_idle_window("cold-cost")
        late = idle_at + window + 0.5
        simulator = _flat_pool(1.0, autoscale="cold-cost")
        metrics = simulator.run(
            [_request(0, 0.0), _request(1, late)], horizon=late + 30.0)
        assert metrics.cold_starts == 2   # the window really is enforced

    def test_stale_tick_never_retires_a_busy_again_instance(self):
        """A tick armed before new work arrives is ignored when it fires."""
        idle_at, window = _first_idle_window("cold-cost")
        just_before = idle_at + window - 0.25
        simulator = _flat_pool(1.0, autoscale="cold-cost")
        metrics = simulator.run(
            [_request(0, 0.0), _request(1, just_before)],
            horizon=just_before + 30.0)
        assert metrics.cold_starts == 1


class TestPolicyDecisionAccounting:
    def test_decisions_flow_into_the_run_metrics(self):
        workload = [_request(i, float(i)) for i in range(5)]
        simulator = _flat_pool(0.5, autoscale="cold-cost")
        metrics = simulator.run(workload, horizon=60.0)
        assert metrics.autoscale_decisions.get("retire", 0) >= 1
        assert "autoscale[retire]" in metrics.summary()

    def test_default_policy_keeps_summaries_clean(self):
        workload = [_request(i, float(i)) for i in range(5)]
        simulator = _flat_pool(0.5)
        metrics = simulator.run(workload, horizon=60.0)
        assert not any(key.startswith("autoscale[")
                       for key in metrics.summary())

    def test_base_policy_hooks_are_safe_no_ops(self):
        policy = AutoscalePolicy()
        policy.on_arrival(None, None, 0.0)
        assert policy.should_retire(None, None, 0.0) is False
        assert policy.idle_check_delay(None, None, 0.0) is None
        assert policy.target_instances(None, None, 0.0) == 0


class TestAlwaysOnFloor:
    @pytest.mark.parametrize("policy", ["histogram", "cold-cost",
                                        "queue-slo"])
    def test_windowed_policy_at_the_floor_drains(self, monkeypatch,
                                                 policy):
        """Regression: a due window on a floor instance re-armed its idle
        tick at delay 0 forever, so the event loop never drained."""
        def bounded_run(self):
            count = 0
            while self.step() is not None:
                count += 1
                assert count < 100_000, "event loop did not drain"
            return count

        monkeypatch.setattr(EventLoop, "run", bounded_run)
        simulator = _flat_pool(0.5, initial_instances=1, keep_alive=1.0,
                               autoscale=policy)
        metrics = simulator.run([_request(i, 5.0 * i) for i in range(4)],
                                horizon=60.0)
        assert len(metrics.ttfts) == 4
        floor = simulator.instances[simulator.model][0]
        assert not floor.retired
