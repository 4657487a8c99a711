"""Stage-granular cold starts in the cluster simulators.

These cover the behaviour the event kernel unlocked: instances become
request-ready at ``Timeline.ready`` instead of the full makespan, the
pipelined restore tail contends with early serving, a zero-capacity
model can preempt another model's in-flight cold start at a stage
boundary, ladder rungs surface in the unified trace, and the whole run
exports as one Chrome trace.
"""

import json

import pytest

from repro.engine.loadplan import ScheduledStage
from repro.reporting.timeline import (
    export_simulation_trace,
    simulation_trace_events,
)
from repro.serverless import (
    ClusterSimulator,
    ColdStartProfile,
    ModelDeployment,
    MultiModelCluster,
    ServingCostModel,
    TaggedRequest,
)
from repro.serverless.workload import Request
from tests.serverless.reference_step import total_steps
from tests.timelines import chain_timeline


def pipelined_profile():
    """A pipelined restore: serving-ready at 1.0s, full restore at 3.0s.

    Mirrors the PR-4 fast path: artifact fetch and allocation replay feed
    the first graph's restore (the critical path to readiness), while the
    larger batch-size graphs restore in the background behind serving.
    """
    stages = [
        ScheduledStage("fetch_artifact", 0.0, 0.4, lane="disk"),
        ScheduledStage("replay_alloc", 0.4, 0.7, lane="cpu"),
        ScheduledStage("restore_graph[1]", 0.7, 1.0, lane="gpu_compute"),
        ScheduledStage("restore_graph[2]", 1.0, 2.0, lane="gpu_compute",
                       background=True),
        ScheduledStage("restore_graph[4]", 2.0, 3.0, lane="gpu_compute",
                       background=True),
    ]
    return ColdStartProfile(loading_time=3.0, ready_time=1.0,
                            timeline=chain_timeline(*stages))


def scalar_timeline_profile(total=3.0, names=("s1", "s2", "s3")):
    """A fully-foreground staged plan: ready only at the full makespan."""
    width = total / len(names)
    stages = [ScheduledStage(name, i * width, (i + 1) * width,
                             lane="gpu_compute")
              for i, name in enumerate(names)]
    return ColdStartProfile(loading_time=total,
                            timeline=chain_timeline(*stages))


def burst(count, spacing=0.05, prompt=128, output=30):
    """``count`` near-simultaneous arrivals — the §7.5 burst shape."""
    return [Request(request_id=i, arrival_time=i * spacing,
                    prompt_tokens=prompt, output_tokens=output)
            for i in range(count)]


def llama_deployment(cold_start_latency=3.0, **kwargs):
    return ModelDeployment(name="Llama2-7B",
                           costs=ServingCostModel("Llama2-7B"),
                           cold_start_latency=cold_start_latency, **kwargs)


def run_single(requests, horizon=30.0, num_gpus=4, **deployment_kwargs):
    """One traced ClusterSimulator run; returns (simulator, metrics)."""
    simulator = ClusterSimulator(llama_deployment(**deployment_kwargs),
                                 num_gpus, trace=True)
    metrics = simulator.run(requests, horizon=horizon)
    return simulator, metrics


class TestReadyAtTimelineReady:
    def test_first_request_served_before_full_restore(self):
        _, metrics = run_single([Request(0, 0.0, 64, 4)],
                                profile=pipelined_profile())
        assert len(metrics.ttfts) == 1
        # Ready at 1.0s (Timeline.ready), not 3.0s (Timeline.total).
        assert 1.0 < metrics.ttfts[0] < 3.0

    def test_pipelined_plan_beats_scalar_ttft_under_burst(self):
        """The acceptance scenario: same burst, staged vs scalar cold start.

        The scalar model charges the full 3.0s restore before serving;
        the pipelined plan admits at 1.0s and pays only a contention
        penalty until the tail drains, so its TTFT tail must win.
        """
        requests = burst(40)
        _, scalar = run_single(burst(40), cold_start_latency=3.0,
                               max_running=8)
        _, staged = run_single(requests, profile=pipelined_profile(),
                               max_running=8)
        assert staged.cold_starts >= 1 and scalar.cold_starts >= 1
        assert staged.p99_ttft < scalar.p99_ttft
        assert staged.p90_ttft < scalar.p90_ttft
        assert staged.mean_ttft < scalar.mean_ttft

    def test_stage_breakdown_reaches_summary(self):
        _, metrics = run_single([Request(0, 0.0, 64, 4)],
                                profile=pipelined_profile())
        assert metrics.cold_stage_counts == {
            "fetch_artifact": 1, "replay_alloc": 1, "restore_graph[1]": 1,
            "restore_graph[2]": 1, "restore_graph[4]": 1}
        summary = metrics.summary()
        assert summary["cold_stage[fetch_artifact]"] == pytest.approx(0.4)
        assert summary["cold_stage[restore_graph[4]]"] == pytest.approx(1.0)


class TestBackgroundTailContention:
    def test_early_steps_pay_the_tail_penalty(self):
        _, metrics = run_single(burst(6, spacing=0.1, output=5),
                                profile=pipelined_profile())
        assert metrics.background_contended_steps > 0
        assert metrics.background_contention_seconds > 0.0
        summary = metrics.summary()
        assert summary["background_contended_steps"] == float(
            metrics.background_contended_steps)

    def test_steps_after_the_tail_are_clean(self):
        # One early request (contended) and one long after the tail.
        requests = [Request(0, 0.0, 64, 2), Request(1, 10.0, 64, 2)]
        simulator, metrics = run_single(requests,
                                        profile=pipelined_profile())
        contended = [args for span, args in zip(simulator.loop.trace.spans,
                                                simulator.loop.trace.args)
                     if span.label == "serve_step"]
        assert contended[0]["contended"] is True
        assert contended[-1]["contended"] is False

    def test_scalar_cold_starts_never_contend(self):
        _, metrics = run_single(burst(6, output=5), cold_start_latency=3.0)
        assert metrics.background_contended_steps == 0
        assert metrics.background_contention_seconds == 0.0


class TestRedundantColdStart:
    def test_redundant_cold_start_runs_to_completion(self):
        """A second instance whose queue the first drains still finishes
        its cold start: only preemption cancels one."""
        requests = [Request(0, 0.0, 32, 1), Request(1, 0.9, 32, 1)]
        _, metrics = run_single(requests, num_gpus=2, max_running=1,
                                profile=pipelined_profile())
        assert metrics.cold_starts == 2
        assert metrics.cancelled_cold_starts == 0
        assert metrics.completed == 2


class TestMultiModelPreemption:
    def _cluster(self):
        return MultiModelCluster([
            ModelDeployment(name="a", costs=ServingCostModel("Llama2-7B"),
                            cold_start_latency=3.0, max_running=1,
                            profile=scalar_timeline_profile()),
            ModelDeployment(name="b", costs=ServingCostModel("Qwen1.5-4B"),
                            cold_start_latency=0.5),
        ], num_gpus=2)

    def test_zero_capacity_model_preempts_a_cold_start(self):
        """Pool exhausted by model a's cold starts; model b preempts one.

        Two ``a`` arrivals occupy both GPUs with in-flight staged cold
        starts.  When ``b``'s first request lands, the cluster cancels
        the youngest ``a`` cold start at its next stage boundary, queues
        its request on the surviving ``a`` instance, and launches ``b``
        on the freed GPU.
        """
        cluster = self._cluster()
        tagged = [
            TaggedRequest("a", Request(0, 0.0, 64, 4)),
            TaggedRequest("a", Request(1, 0.1, 64, 4)),
            TaggedRequest("b", Request(2, 1.2, 64, 4)),
        ]
        per_model = cluster.run(tagged, horizon=30.0)
        assert per_model["a"].cancelled_cold_starts == 1
        # The victim (launched at 0.1, stage width 1.0) aborts at the
        # boundary after t=1.2: the end of its second stage.
        assert per_model["a"].cancelled_at_stage == {"s2": 1}
        assert per_model["b"].cold_starts == 1
        assert per_model["b"].completed == 1
        # Every a request still completes on the surviving instance.
        assert per_model["a"].completed == 2
        # The pool never over-provisions while handing the GPU over.
        assert cluster.gpus_in_use <= cluster.num_gpus

    def test_aggregate_folds_stage_counters(self):
        cluster = self._cluster()
        tagged = [
            TaggedRequest("a", Request(0, 0.0, 64, 4)),
            TaggedRequest("a", Request(1, 0.1, 64, 4)),
            TaggedRequest("b", Request(2, 1.2, 64, 4)),
        ]
        per_model = cluster.run(tagged, horizon=30.0)
        total = cluster.aggregate()
        assert total.cancelled_cold_starts == 1
        assert total.cold_stage_counts.get("s1") == \
            per_model["a"].cold_stage_counts.get("s1")
        assert total.summary()["cancelled_cold_starts"] == 1.0


class TestLadderRungSurfacing:
    def test_degrade_stage_marks_a_ladder_rung_event(self):
        stages = [
            ScheduledStage("fetch_artifact", 0.0, 0.5, lane="disk"),
            ScheduledStage("degrade_recapture", 0.5, 1.5,
                           lane="gpu_compute"),
        ]
        profile = ColdStartProfile(loading_time=1.5,
                                   timeline=chain_timeline(*stages),
                                   degraded_rung="recapture")
        simulator, metrics = run_single([Request(0, 0.0, 64, 2)],
                                        profile=profile)
        assert metrics.degraded_cold_starts == 1
        rungs = [m for m in simulator.loop.trace.marks
                 if m[0] == "ladder_rung"]
        assert len(rungs) == 1
        assert rungs[0][3]["stage"] == "degrade_recapture"


class TestUnifiedTraceExport:
    def test_cluster_run_exports_chrome_trace(self):
        simulator, _ = run_single(burst(4, output=3),
                                  profile=pipelined_profile())
        events = simulation_trace_events(simulator.loop.trace,
                                         name="unit test")
        phases = {event["ph"] for event in events}
        assert {"M", "X", "i"} <= phases
        names = {event["name"] for event in events}
        assert "fetch_artifact" in names      # cold-start stage span
        assert "serve_step" in names          # serving span
        assert "instance_ready" in names      # instant event
        parsed = json.loads(export_simulation_trace(simulator.loop.trace))
        assert parsed["traceEvents"]
        # Track metadata rows name each instance's thread.
        threads = [event for event in events
                   if event["name"] == "thread_name"]
        assert any(event["args"]["name"].startswith("instance-")
                   for event in threads)


class TestTraceOptIn:
    """``trace=False`` (the default) records nothing and changes nothing.

    The trace is an output only: the same run with and without it must
    produce bit-identical metrics, so no metric can depend on a record.
    """

    @staticmethod
    def _single(trace):
        simulator = ClusterSimulator(
            llama_deployment(profile=pipelined_profile(), max_running=8), 2,
            trace=trace)
        return simulator, {"m": simulator.run(burst(40), horizon=30.0)}

    @staticmethod
    def _multi(trace):
        cluster = MultiModelCluster([
            ModelDeployment(name="a", costs=ServingCostModel("Llama2-7B"),
                            cold_start_latency=3.0, max_running=1,
                            profile=scalar_timeline_profile()),
            ModelDeployment(name="b", costs=ServingCostModel("Qwen1.5-4B"),
                            cold_start_latency=0.5,
                            profile=pipelined_profile()),
        ], num_gpus=2, trace=trace)
        tagged = [TaggedRequest("a", Request(0, 0.0, 64, 4)),
                  TaggedRequest("a", Request(1, 0.1, 64, 4)),
                  TaggedRequest("b", Request(2, 1.2, 64, 4)),
                  TaggedRequest("b", Request(3, 9.0, 640, 40))]
        return cluster, cluster.run(tagged, horizon=30.0)

    @pytest.mark.parametrize("run", ["_single", "_multi"])
    def test_untraced_run_records_nothing_and_matches(self, run):
        quiet, quiet_metrics = getattr(self, run)(False)
        traced, traced_metrics = getattr(self, run)(True)
        assert quiet.loop.trace.spans == [] and quiet.loop.trace.marks == []
        assert quiet.loop.trace.tracks == [] and quiet.loop.trace.args == []
        assert traced.loop.trace.spans and traced.loop.trace.marks
        assert total_steps(quiet) == total_steps(traced)
        for name, metrics in quiet_metrics.items():
            other = traced_metrics[name]
            assert repr(metrics.summary()) == repr(other.summary())
            assert metrics.provisioned_gpu_seconds.hex() == \
                other.provisioned_gpu_seconds.hex()
            assert metrics.busy_gpu_seconds.hex() == \
                other.busy_gpu_seconds.hex()
            assert sum(metrics.ttfts).hex() == sum(other.ttfts).hex()
