"""Mutation-style acceptance tests: the scenario harness must have teeth.

Each test seeds one realistic policy/accounting bug (an off-by-one idle
window, a double-counted waste counter, a wrong SLO clock, ...) via
monkeypatching, replays a named scenario from
:mod:`tests.integration.scenarios`, and asserts the summary *diverges*
from the committed golden.  A mutation that no scenario notices would
mean the harness cannot catch that class of regression — so the
assertion here is inverted: the run must NOT match.

The bugs are chosen to be the ones a refactor would plausibly introduce,
not strawmen: every mutated line exists in the real implementation.
"""

import pytest

from repro.serverless import metrics as metrics_module
from repro.serverless.cluster import MultiModelCluster
from repro.serverless.autoscale import (
    ColdCostAwarePolicy,
    HistogramPolicy,
    KeepAlivePolicy,
    TargetQueueDelayPolicy,
)
from tests.integration.scenarios import load_goldens, run_scenario


@pytest.fixture(scope="module")
def goldens():
    """The committed scenario snapshots the mutations must diverge from."""
    return load_goldens()


def assert_mutation_detected(goldens, scenario):
    """Replay ``scenario`` under the active mutation; it must diverge."""
    fresh = run_scenario(scenario)
    assert fresh != goldens[scenario], (
        f"mutation was NOT detected by scenario {scenario!r}: the "
        f"harness has a blind spot for this bug class")


class TestIdleWindowMutations:
    def test_off_by_one_idle_window_is_caught(self, monkeypatch, goldens):
        """``>`` instead of ``>=``: the window never fires at equality.

        ``chunk_warm_sibling`` runs ``keep_alive=0`` — the only fixed
        -window configuration where the comparison is exercised at exact
        equality (``idle == 0``), so the strict form stops every
        retirement and the churn the scenario pins disappears.
        """
        def should_retire(self, pool, instance, now):
            return now - instance.last_busy_at > self.keep_alive

        monkeypatch.setattr(KeepAlivePolicy, "should_retire",
                            should_retire)
        assert_mutation_detected(goldens, "chunk_warm_sibling")

    def test_histogram_bucket_off_by_one_is_caught(self, monkeypatch,
                                                   goldens):
        """Bucket index instead of upper edge: windows one bucket short."""
        original = HistogramPolicy.predicted_window

        def predicted_window(self):
            return max(self.min_window,
                       original(self) - self.bucket * self.margin)

        monkeypatch.setattr(HistogramPolicy, "predicted_window",
                            predicted_window)
        assert_mutation_detected(goldens, "multi_model_contention")

    def test_cold_cost_ignoring_observed_cost_is_caught(self, monkeypatch,
                                                        goldens):
        """A window priced from the config default, not the real restore."""
        def cold_cost(self, instance):
            return self.default_cold_cost

        monkeypatch.setattr(ColdCostAwarePolicy, "cold_cost", cold_cost)
        assert_mutation_detected(goldens, "single_model_burst")

    def test_stale_tick_guard_removal_is_caught(self, monkeypatch,
                                                goldens):
        """A tick that trusts its arming-time decision retires too early.

        The real handler re-checks the ``last_busy_at`` stamp and the
        policy before retiring; this mutation retires any currently-idle
        instance the moment a (possibly stale) tick fires.
        """
        def on_idle_recheck(self, event):
            instance, _stamp = event.payload
            now = self.loop.now
            if (instance.retired or instance.stepping
                    or instance.has_work or instance.hot_spare):
                return
            if not self._above_floor(instance):
                return
            instance.retired = True
            instance.retired_at = now

        monkeypatch.setattr(MultiModelCluster, "_on_idle_recheck",
                            on_idle_recheck)
        assert_mutation_detected(goldens, "single_model_burst")


class TestAccountingMutations:
    def test_double_counted_warm_seconds_is_caught(self, monkeypatch,
                                                   goldens):
        """Waste computed from provisioned alone, not provisioned - busy."""
        def record_instance_lifetime(self, provisioned, busy):
            self.provisioned_gpu_seconds += provisioned
            self.busy_gpu_seconds += busy
            self.wasted_warm_seconds += provisioned

        monkeypatch.setattr(metrics_module.SimulationMetrics,
                            "record_instance_lifetime",
                            record_instance_lifetime)
        assert_mutation_detected(goldens, "single_model_burst")

    def test_slo_clock_excluding_cold_tax_is_caught(self, monkeypatch,
                                                    goldens):
        """The SLO judged from admission, not arrival: cold waits excused."""
        def record_ttft(self, ttft, cold_tax=0.0):
            self.ttfts.append(ttft)
            self.cold_start_tax_seconds += cold_tax
            if self.slo_ttft > 0 and ttft - cold_tax > self.slo_ttft:
                self.slo_violations += 1

        monkeypatch.setattr(metrics_module.SimulationMetrics,
                            "record_ttft", record_ttft)
        assert_mutation_detected(goldens, "single_model_burst")

    def test_cold_tax_clocked_from_launch_is_caught(self, monkeypatch,
                                                    goldens):
        """Tax measured to the launch instant instead of readiness."""
        def cold_tax(self, instance, request, ttft):
            return min(ttft, max(0.0, instance.launched_at
                                 - request.arrival_time))

        monkeypatch.setattr(MultiModelCluster, "_cold_tax", cold_tax)
        assert_mutation_detected(goldens, "single_model_burst")


class TestScaleUpMutations:
    def test_queue_delay_ignoring_cold_wait_is_caught(self, monkeypatch,
                                                      goldens):
        """A delay predictor blind to 'nothing is ready yet'."""
        def predicted_delay(self, pool, model, now):
            live = pool._live_instances(model)
            if not live:
                return 0.0
            ready = [inst for inst in live if now >= inst.ready_at]
            queued = sum(len(inst.waiting) for inst in live)
            return queued * self.service_estimate / max(1, len(ready))

        monkeypatch.setattr(TargetQueueDelayPolicy, "predicted_delay",
                            predicted_delay)
        assert_mutation_detected(goldens, "scale_from_zero_spike")


class TestHarnessSanity:
    def test_unmutated_scenarios_still_match(self, goldens):
        """The detector itself: without a mutation, everything matches.

        Guards against a harness that 'catches' every mutation only
        because the comparison is broken and nothing ever matches.
        """
        for name in ("single_model_burst", "chunk_warm_sibling"):
            assert run_scenario(name) == goldens[name]
