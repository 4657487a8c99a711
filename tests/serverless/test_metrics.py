"""SimulationMetrics unit tests."""

import copy
from dataclasses import fields

import pytest

from repro.serverless.metrics import SimulationMetrics


def stage_done(metrics, name, seconds):
    """Count one completed cold-start stage the way the pool does."""
    metrics.count("cold_stage_seconds", seconds, key=name)
    metrics.count("cold_stage_counts", key=name)


def cancelled(metrics, stage):
    """Count one cold start cancelled at ``stage``."""
    metrics.count("cancelled_cold_starts")
    metrics.count("cancelled_at_stage", key=stage)


def contended(metrics, seconds):
    """Count one serving step slowed by a background restore tail."""
    metrics.count("background_contended_steps")
    metrics.count("background_contention_seconds", seconds)


def tier_hit(metrics, tier, seconds_saved=0.0):
    """Count one artifact fetch served from ``tier``."""
    metrics.count("tier_hits", key=tier)
    metrics.count("fetch_seconds_saved", seconds_saved)


class TestMetrics:
    def test_empty_metrics_are_zero(self):
        metrics = SimulationMetrics(horizon=10.0)
        assert metrics.p99_ttft == 0.0
        assert metrics.throughput == 0.0
        assert metrics.gpu_utilization == 0.0
        assert metrics.wasted_gpu_seconds == 0.0

    def test_ttft_percentiles(self):
        metrics = SimulationMetrics(horizon=1.0)
        for value in (1.0, 2.0, 3.0, 4.0):
            metrics.record_ttft(value)
        assert metrics.p50_ttft == 2.5
        assert metrics.mean_ttft == 2.5
        assert metrics.p99_ttft > metrics.p50_ttft

    def test_throughput_counts_in_horizon_only(self):
        metrics = SimulationMetrics(horizon=10.0)
        metrics.record_completion(1.0, in_horizon=True)
        metrics.record_completion(1.0, in_horizon=False)
        assert metrics.completed == 1
        assert metrics.throughput == pytest.approx(0.1)
        assert len(metrics.latencies) == 2

    def test_zero_horizon_throughput(self):
        metrics = SimulationMetrics(horizon=0.0)
        metrics.record_completion(1.0)
        assert metrics.throughput == 0.0

    def test_gpu_accounting(self):
        metrics = SimulationMetrics(horizon=100.0)
        metrics.provisioned_gpu_seconds = 200.0
        metrics.busy_gpu_seconds = 150.0
        assert metrics.gpu_utilization == pytest.approx(0.75)
        assert metrics.wasted_gpu_seconds == pytest.approx(50.0)

    def test_utilization_capped_at_one(self):
        metrics = SimulationMetrics(horizon=1.0)
        metrics.provisioned_gpu_seconds = 1.0
        metrics.busy_gpu_seconds = 2.0    # drain past horizon can exceed
        assert metrics.gpu_utilization == 1.0

    def test_summary_is_flat_and_complete(self):
        metrics = SimulationMetrics(horizon=10.0)
        metrics.arrived = 3
        metrics.record_ttft(0.5)
        metrics.record_completion(1.0)
        summary = metrics.summary()
        assert summary["arrived"] == 3.0
        assert summary["completed"] == 1.0
        assert "ttft_p99" in summary
        assert "p90_ttft" in summary
        assert all(isinstance(v, float) for v in summary.values())

    def test_p90_ttft(self):
        metrics = SimulationMetrics(horizon=1.0)
        for value in range(1, 101):
            metrics.record_ttft(float(value))
        assert metrics.p90_ttft == pytest.approx(90.0, abs=1.0)
        assert metrics.p50_ttft < metrics.p90_ttft < metrics.p99_ttft


class TestStageColdStartCounters:
    def test_cold_stage_accumulation(self):
        metrics = SimulationMetrics(horizon=1.0)
        stage_done(metrics, "fetch_artifact", 0.4)
        stage_done(metrics, "fetch_artifact", 0.6)
        stage_done(metrics, "replay_alloc", 0.3)
        assert metrics.cold_stage_seconds == pytest.approx(
            {"fetch_artifact": 1.0, "replay_alloc": 0.3})
        assert metrics.cold_stage_counts == {"fetch_artifact": 2,
                                             "replay_alloc": 1}
        summary = metrics.summary()
        assert summary["cold_stage[fetch_artifact]"] == pytest.approx(1.0)
        assert summary["cold_stage[replay_alloc]"] == pytest.approx(0.3)

    def test_cancelled_cold_start_accounting(self):
        metrics = SimulationMetrics(horizon=1.0)
        cancelled(metrics, "replay_alloc")
        cancelled(metrics, "replay_alloc")
        cancelled(metrics, "fetch_artifact")
        assert metrics.cancelled_cold_starts == 3
        assert metrics.cancelled_at_stage == {"replay_alloc": 2,
                                              "fetch_artifact": 1}
        assert metrics.summary()["cancelled_cold_starts"] == 3.0

    def test_background_contention_accounting(self):
        metrics = SimulationMetrics(horizon=1.0)
        contended(metrics, 0.05)
        contended(metrics, 0.15)
        assert metrics.background_contended_steps == 2
        assert metrics.background_contention_seconds == pytest.approx(0.2)
        summary = metrics.summary()
        assert summary["background_contended_steps"] == 2.0
        assert summary["background_contention_seconds"] == pytest.approx(0.2)

    def test_merge_folds_every_stage_counter(self):
        left = SimulationMetrics(horizon=10.0)
        right = SimulationMetrics(horizon=10.0)
        stage_done(left, "s1", 1.0)
        stage_done(right, "s1", 2.0)
        stage_done(right, "s2", 0.5)
        cancelled(left, "s1")
        cancelled(right, "s2")
        contended(right, 0.25)
        right.count("degraded_cold_starts")
        right.count("degraded_rungs", key="partial")
        left.merge(right)
        assert left.cold_stage_seconds == pytest.approx({"s1": 3.0,
                                                         "s2": 0.5})
        assert left.cold_stage_counts == {"s1": 2, "s2": 1}
        assert left.cancelled_cold_starts == 2
        assert left.cancelled_at_stage == {"s1": 1, "s2": 1}
        assert left.background_contended_steps == 1
        assert left.background_contention_seconds == pytest.approx(0.25)
        assert left.degraded_rungs == {"partial": 1}


class TestMergeEdgeCases:
    def test_merge_of_two_empty_metrics_is_empty(self):
        left = SimulationMetrics(horizon=10.0)
        left.merge(SimulationMetrics(horizon=10.0))
        assert left.summary() == SimulationMetrics(horizon=10.0).summary()
        assert left.ttfts == [] and left.latencies == []
        assert left.tier_hits == {} and left.tier_misses == 0

    def test_merge_empty_into_populated_changes_nothing(self):
        left = SimulationMetrics(horizon=10.0)
        left.record_ttft(0.5)
        stage_done(left, "s1", 1.0)
        tier_hit(left, "dram", 1.9)
        before = left.summary()
        left.merge(SimulationMetrics(horizon=10.0))
        assert left.summary() == before

    def test_merge_disjoint_cold_stage_keys_unions_them(self):
        left = SimulationMetrics(horizon=10.0)
        right = SimulationMetrics(horizon=10.0)
        stage_done(left, "fetch_artifact", 0.4)
        stage_done(right, "replay_alloc", 0.3)
        stage_done(right, "restore_graph[1]", 0.2)
        left.merge(right)
        assert left.cold_stage_seconds == pytest.approx(
            {"fetch_artifact": 0.4, "replay_alloc": 0.3,
             "restore_graph[1]": 0.2})
        assert left.cold_stage_counts == {"fetch_artifact": 1,
                                          "replay_alloc": 1,
                                          "restore_graph[1]": 1}

    def test_merge_folds_tier_counters(self):
        left = SimulationMetrics(horizon=10.0)
        right = SimulationMetrics(horizon=10.0)
        tier_hit(left, "dram", 1.9)
        left.count("tier_misses")
        tier_hit(right, "dram", 1.9)
        tier_hit(right, "gpu", 2.0)
        right.count("tier_misses")
        left.count("tier_evictions", key="ssd")
        right.count("tier_evictions", key="ssd")
        right.count("tier_evictions", key="remote")
        right.count("tier_promotions", key="gpu")
        left.merge(right)
        assert left.tier_hits == {"dram": 2, "gpu": 1}
        assert left.tier_misses == 2
        assert left.tier_evictions == {"ssd": 2, "remote": 1}
        assert left.tier_promotions == {"gpu": 1}
        assert left.fetch_seconds_saved == pytest.approx(5.8)
        summary = left.summary()
        assert summary["tier_hits[dram]"] == 2.0
        assert summary["tier_hits[gpu]"] == 1.0
        assert summary["tier_misses"] == 2.0
        assert summary["tier_evictions[ssd]"] == 2.0
        assert summary["tier_promotions[gpu]"] == 1.0
        assert summary["fetch_seconds_saved"] == pytest.approx(5.8)

    def test_merge_tier_counters_into_empty_aggregate(self):
        aggregate = SimulationMetrics(horizon=5.0)
        part = SimulationMetrics(horizon=5.0)
        tier_hit(part, "dram", 0.7)
        aggregate.merge(part)
        assert aggregate.tier_hits == {"dram": 1}
        assert aggregate.fetch_seconds_saved == pytest.approx(0.7)
        # The source's dicts must not be aliased into the aggregate.
        tier_hit(part, "dram")
        assert aggregate.tier_hits == {"dram": 1}


def populated(seed):
    """Metrics with every dataclass field set to a non-default value."""
    metrics = SimulationMetrics()
    for number, spec in enumerate(fields(SimulationMetrics), start=seed):
        default = getattr(metrics, spec.name)
        if isinstance(default, list):
            value = [float(number), number + 0.5]
        elif isinstance(default, dict):
            value = {"x": number, f"k{seed}": number + 1.5}
        elif isinstance(default, int):
            value = number + 1
        else:
            value = number + 0.25
        assert value != default
        setattr(metrics, spec.name, value)
    return metrics


#: Summary keys of an empty run.
DEFAULT_SUMMARY_KEYS = [
    "ttft_count", "ttft_mean", "ttft_p50", "ttft_p90", "ttft_p99",
    "ttft_max", "p90_ttft", "arrived", "completed", "throughput",
    "cold_starts", "degraded_cold_starts", "store_cache_hits",
    "store_cache_misses", "cancelled_cold_starts",
    "background_contended_steps", "background_contention_seconds",
    "tier_misses", "fetch_seconds_saved", "cold_start_tax_seconds",
    "wasted_warm_seconds"]


class TestGenericFields:
    def test_merge_folds_every_field(self):
        """Walks every dataclass field, so a new one cannot be dropped."""
        left, right = populated(1), populated(100)
        before = copy.deepcopy(left)
        left.merge(right)
        for spec in fields(SimulationMetrics):
            name = spec.name
            mine, theirs = getattr(before, name), getattr(right, name)
            merged = getattr(left, name)
            if name == "horizon":
                assert merged == mine
            elif name == "slo_ttft":
                assert merged == theirs
            elif isinstance(mine, list):
                assert merged == mine + theirs, name
            elif isinstance(mine, dict):
                assert merged == {key: mine.get(key, 0) + theirs.get(key, 0)
                                  for key in {**mine, **theirs}}, name
            else:
                assert merged == mine + theirs, name

    def test_merge_keeps_the_slo_when_the_other_has_none(self):
        left = SimulationMetrics(slo_ttft=0.5)
        left.merge(SimulationMetrics())
        assert left.slo_ttft == 0.5

    def test_count_grows_numbers_and_labelled_dicts(self):
        metrics = SimulationMetrics()
        metrics.count("cold_starts")
        metrics.count("fetch_seconds_saved", 1.5)
        metrics.count("tier_hits", key="dram")
        metrics.count("cold_stage_seconds", 0.25, key="fetch_artifact")
        metrics.count("cold_stage_seconds", 0.5, key="fetch_artifact")
        assert metrics.cold_starts == 1
        assert metrics.fetch_seconds_saved == 1.5
        assert metrics.tier_hits == {"dram": 1}
        assert metrics.cold_stage_seconds == {"fetch_artifact": 0.75}

    def test_default_summary_keys(self):
        assert list(SimulationMetrics().summary()) == DEFAULT_SUMMARY_KEYS

    def test_populated_summary_keys(self):
        labelled = [f"{prefix}[{key}]"
                    for prefix in ("tier_hits", "tier_evictions",
                                   "tier_promotions", "cold_stage")
                    for key in ("k1", "x")]
        assert list(populated(1).summary()) == (
            DEFAULT_SUMMARY_KEYS
            + ["slo_ttft", "slo_violations", "slo_attainment",
               "autoscale[k1]", "autoscale[x]", "chunk_hits",
               "bytes_deduped", "fetch_bytes_foreground"]
            + labelled)
