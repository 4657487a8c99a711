"""The pool's array fold of cold-start stages against the sort-and-count loop.

``MultiModelCluster._account_cold_stages`` sums every cold-start stage
that ran from each timeline's shared stage columns, in one ``lexsort``
order, with ``np.add.at``.  On the ``multimodel/spike_train`` pool (the
work-count ledger's row), the ``stage/preemption`` pool (a cold start
cancelled at a stage boundary), a burst on a plan with a ladder stage,
a chunk-streamed plan whose fetch stages the placement layer retimes
and two models launched from one profile, traced and untraced, every ``cold_stage_seconds`` value must be
``.hex()``-equal to what ``tests/serverless/reference_fold.py`` sums,
every ``cold_stage_counts`` value equal, both in the same key order, and
a traced run must draw the same spans and ``ladder_rung`` marks in the
same order.  Pools that share one set of deployments (and so their
profiles, timelines and stage columns) must match pools built fresh.
"""

from __future__ import annotations

import pytest

from repro.serverless import (
    ColdStartProfile,
    ModelDeployment,
    MultiModelCluster,
    ServingCostModel,
    ShareGPTWorkload,
    TaggedRequest,
    tag_workloads,
)
from tests.engine.test_retime import _plans
from tests.serverless import reference_fold
from tests.serverless.test_stage_coldstart import (
    PREEMPTION_REQUESTS,
    burst,
    pipelined_profile,
    preemption_cluster,
    scalar_timeline_profile,
)


def spike_train_deployments():
    """Four staged deployments: two pipelined plans (a fetch stage the
    locality policy retimes, a background tail) and two serial ones."""
    profiles = {"Llama2-7B": pipelined_profile(),
                "Qwen1.5-4B": scalar_timeline_profile(),
                "Qwen1.5-0.5B": pipelined_profile(),
                "Yi-6B": scalar_timeline_profile(total=2.0)}
    return [ModelDeployment(name=model, costs=ServingCostModel(model),
                            cold_start_latency=profile.serving_ready_time,
                            profile=profile)
            for model, profile in profiles.items()]


def spike_train_trace(seed: int = 50):
    """Seeded spike-train arrivals, 1 rps per model for 300 s."""
    return tag_workloads({
        deployment.name: ShareGPTWorkload(
            rps=1.0, duration=300.0, seed=seed + position,
            shape="spike_train")
        for position, deployment in enumerate(spike_train_deployments())})


def run_spike_train(trace=False, deployments=None, seed=50):
    """The ``multimodel/spike_train`` pool: eight GPUs, locality
    placement, the cold-cost autoscaler and a 1 s TTFT budget."""
    pool = MultiModelCluster(deployments or spike_train_deployments(),
                             num_gpus=8, placement="locality",
                             autoscale="cold-cost", slo_ttft=1.0,
                             trace=trace)
    pool.run(spike_train_trace(seed), horizon=300.0)
    return pool


def run_preemption(trace=False):
    pool = preemption_cluster(trace=trace)
    pool.run(PREEMPTION_REQUESTS, horizon=30.0)
    return pool


def run_degraded(trace=False):
    """A burst on a serial plan with a ladder stage in the middle."""
    profile = scalar_timeline_profile(
        names=("s1", "degrade_recapture", "s3"))
    pool = MultiModelCluster([ModelDeployment(
        name="Llama2-7B", costs=ServingCostModel("Llama2-7B"),
        cold_start_latency=profile.serving_ready_time, max_running=4,
        profile=profile)], num_gpus=4, trace=trace)
    pool.run([TaggedRequest("Llama2-7B", request)
              for request in burst(24)], horizon=30.0)
    return pool


def run_chunked(trace=False):
    """Two models on a chunk-streamed plan with uneven stage durations:
    locality placement retimes every ``fetch_chunk[i]`` stage, and the
    sums run over many distinct floats."""
    plan = _plans()["chunked"]
    deployments = []
    for position, model in enumerate(("Llama2-7B", "Qwen1.5-4B")):
        timeline = plan.schedule({
            stage.name: 0.01 * (1 + (index * 7919 + position) % 13) / 3
            for index, stage in enumerate(plan.stages)})
        profile = ColdStartProfile(loading_time=timeline.total,
                                   ready_time=timeline.ready,
                                   timeline=timeline)
        deployments.append(ModelDeployment(
            name=model, costs=ServingCostModel(model),
            cold_start_latency=profile.serving_ready_time, max_running=4,
            profile=profile))
    pool = MultiModelCluster(deployments, num_gpus=4, placement="locality",
                             autoscale="cold-cost", trace=trace)
    pool.run(tag_workloads({
        deployment.name: ShareGPTWorkload(
            rps=1.0, duration=120.0, seed=90 + position,
            shape="spike_train")
        for position, deployment in enumerate(deployments)}),
        horizon=120.0)
    return pool


def run_shared_profile(trace=False):
    """Two models launched from one profile object: the same timeline
    folds into each model's own counters."""
    profile = pipelined_profile()
    pool = MultiModelCluster(
        [ModelDeployment(name=model, costs=ServingCostModel(model),
                         cold_start_latency=profile.serving_ready_time,
                         max_running=2, profile=profile)
         for model in ("Llama2-7B", "Qwen1.5-4B")],
        num_gpus=4, placement="locality", trace=trace)
    pool.run([TaggedRequest(model, request)
              for model, requests in (("Llama2-7B", burst(12)),
                                      ("Qwen1.5-4B", burst(6, 0.2)))
              for request in requests], horizon=30.0)
    return pool


POOLS = {"multimodel/spike_train": run_spike_train,
         "stage/preemption": run_preemption,
         "stage/degraded": run_degraded,
         "stage/chunked": run_chunked,
         "stage/shared_profile": run_shared_profile}


def _hex(totals):
    return [(key, float(value).hex()) for key, value in totals.items()]


def _cold_spans(pool):
    trace = pool.loop.trace
    return [(span.label, span.start, span.end, track, args)
            for span, track, args in zip(trace.spans, trace.tracks,
                                         trace.args)
            if args.get("cold_start")]


@pytest.mark.parametrize("traced", [False, True],
                         ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(POOLS))
def test_fold_matches_the_sort_and_count_loop(name, traced):
    pool = POOLS[name](trace=traced)
    seconds, counts, spans, marks, last = reference_fold.fold(pool)
    assert any(seconds.values())
    for model, metrics in pool.metrics.items():
        assert _hex(metrics.cold_stage_seconds) == _hex(seconds[model])
        assert list(metrics.cold_stage_counts.items()) == \
            list(counts[model].items())
        assert all(type(count) is int
                   for count in metrics.cold_stage_counts.values())
    if traced:
        assert [(label, start.hex(), end.hex(), track, args)
                for label, start, end, track, args in _cold_spans(pool)] \
            == [(label, start.hex(), end.hex(), track, args)
                for label, start, end, track, args in spans]
        assert [mark for mark in pool.loop.trace.marks
                if mark[0] == "ladder_rung"] == marks
    else:
        assert not pool.loop.trace.spans
    # The fold's last end, on emptied counters.
    for metrics in pool.metrics.values():
        metrics.cold_stage_seconds.clear()
        metrics.cold_stage_counts.clear()
    pool.loop.trace.enabled = False
    assert pool._account_cold_stages().hex() == last.hex()


def test_the_pools_cover_cancelled_and_ladder_stages():
    """The parity pools fold a cancelled cold start's prefix, a ladder
    stage, and background stages."""
    cancelled = run_preemption().metrics["a"]
    assert cancelled.cancelled_cold_starts == 1
    assert cancelled.cold_stage_counts == {"s1": 2, "s2": 2, "s3": 1}
    degraded = run_degraded(trace=True)
    assert degraded.aggregate().cold_stage_counts["degrade_recapture"] > 0
    assert any(mark[0] == "ladder_rung" for mark in degraded.loop.trace.marks)
    spike = run_spike_train()
    assert spike.aggregate().cold_stage_counts["restore_graph[4]"] > 0
    chunked = run_chunked()
    assert len(chunked._retimed) > 1
    assert chunked.aggregate().cold_starts > 10
    shared = run_shared_profile()
    assert all(metrics.cold_stage_counts.get("fetch_artifact")
               == metrics.cold_starts > 0
               for metrics in shared.metrics.values())


def _outcome(pool):
    """Everything a pool run reports, floats as hex."""
    def exact(value):
        return value.hex() if isinstance(value, float) else value
    return {model: ({key: exact(value)
                     for key, value in metrics.summary().items()},
                    [ttft.hex() for ttft in metrics.ttfts],
                    [latency.hex() for latency in metrics.latencies],
                    _hex(metrics.cold_stage_seconds),
                    list(metrics.cold_stage_counts.items()))
            for model, metrics in pool.metrics.items()}


def test_pools_sharing_deployments_match_fresh_pools():
    """Profiles, retimed timelines and stage columns shared across pools
    (and across runs of one pool) change nothing."""
    shared = spike_train_deployments()
    fresh = {seed: _outcome(run_spike_train(seed=seed))
             for seed in (50, 70)}
    for seed in (70, 50, 70):
        assert _outcome(run_spike_train(deployments=shared,
                                        seed=seed)) == fresh[seed]
    pool = MultiModelCluster(shared, num_gpus=8, placement="locality",
                             autoscale="cold-cost", slo_ttft=1.0)
    for seed in (50, 70):
        pool.run(spike_train_trace(seed), horizon=300.0)
        assert _outcome(pool) == fresh[seed]
