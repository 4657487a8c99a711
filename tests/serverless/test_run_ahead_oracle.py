"""Silent runs against the per-step path, on whole pools.

After a serving step that records nothing, an instance runs through its
pure-decode steps in one loop and the pool schedules one completion
event at the run's end (``Instance.run_ahead``); an enqueue cuts the run
back to the step in flight (``MultiModelCluster._cut_run``).  This
property builds small, tie-heavy pools (arrivals on a coarse time grid,
repeated prompt and output lengths, 1-4 sequence batches, every
placement and autoscale policy, staged and scalar cold starts, eager and
deferred-capture serving, hot spares, tensor-parallel deployments and
starved models) and runs each twice: as is, and on the per-step path.
Every metric, every TTFT and latency in record order, every instance's
busy time, last busy instant, step count, retirement and restore-tail
contention, and any error raised must agree bit for bit.  It also checks
that the pools exercise what makes the rule delicate: runs cut by an
arrival, runs that start inside a restore tail, and step completions of
different instances at the same instant.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidValueError, SchedulingError
from repro.serverless import (
    ModelDeployment,
    MultiModelCluster,
    ServingCostModel,
    TaggedRequest,
)
from repro.serverless.autoscale import autoscaler_names
from repro.serverless.instance import Instance
from repro.serverless.placement import policy_names
from repro.serverless.workload import Request
from tests.serverless.reference_step import per_step_path, pool_outcome
from tests.serverless.test_stage_coldstart import (
    pipelined_profile,
    scalar_timeline_profile,
)

COSTS = {"a": ServingCostModel("Llama2-7B"),
         "b": ServingCostModel("Qwen1.5-0.5B"),
         "c": ServingCostModel("Qwen1.5-4B")}
PROFILES = [None, pipelined_profile(), scalar_timeline_profile()]


@st.composite
def pools(draw):
    """``(deployments, num_gpus, pool options, tagged requests, horizon)``."""
    num_gpus = draw(st.integers(1, 5))
    names = list(COSTS)[:draw(st.integers(1, 3))]
    always_on = 0
    deployments = []
    for name in names:
        initial = draw(st.integers(0, 2))
        spares = draw(st.sampled_from([0, 0, 1]))
        if always_on + initial + spares > num_gpus:
            initial = spares = 0
        always_on += initial + spares
        deployments.append(ModelDeployment(
            name=name, costs=COSTS[name],
            cold_start_latency=draw(st.sampled_from([0.25, 1.0, 3.0])),
            use_cuda_graphs=draw(st.booleans()),
            deferred_capture=draw(st.booleans()),
            max_running=draw(st.integers(1, 4)),
            profile=draw(st.sampled_from(PROFILES)),
            initial_instances=initial, hot_spares=spares))
    grid = draw(st.sampled_from([0.05, 0.25, 1.0]))
    # Groups of identical co-timed requests: routed to different
    # instances, they step in lockstep and complete at the same instants.
    groups = draw(st.lists(
        st.tuples(st.sampled_from(names), st.integers(0, 40),
                  st.sampled_from([16, 128]),
                  st.sampled_from([1, 2, 8, 40, 150]), st.integers(1, 4)),
        min_size=1, max_size=20))
    arrivals = [(model, slot, prompt, output)
                for model, slot, prompt, output, copies in groups
                for _ in range(copies)]
    tagged = sorted(
        (TaggedRequest(model, Request(index, slot * grid, prompt, output))
         for index, (model, slot, prompt, output) in enumerate(arrivals)),
        key=lambda tagged: tagged.request.arrival_time)
    options = dict(
        keep_alive=draw(st.sampled_from([0.5, 5.0, 20.0])),
        placement=draw(st.sampled_from(policy_names())),
        autoscale=draw(st.sampled_from(autoscaler_names())),
        slo_ttft=draw(st.sampled_from([0.0, 1.0])),
        drain=draw(st.booleans()))
    horizon = draw(st.sampled_from([5.0, 30.0]))
    return deployments, num_gpus, options, tagged, horizon


class _LoggedCluster(MultiModelCluster):
    """Logs every step completion as ``(time, instance id)``."""

    def _reset(self, horizon):
        self.completions = []
        super()._reset(horizon)

    def _on_step_done(self, event):
        self.completions.append((event.time,
                                 event.payload[0].instance_id))
        super()._on_step_done(event)


def _run(spec):
    """One pool run: ``(outcome, pool)``, or the error it raised."""
    deployments, num_gpus, options, tagged, horizon = spec
    pool = None
    try:
        pool = _LoggedCluster(deployments, num_gpus, **options)
        pool.run(tagged, horizon)
    except (InvalidValueError, SchedulingError) as error:
        return (type(error).__name__, str(error)), pool
    return pool_outcome(pool), pool


def _co_timed_completions(pool) -> int:
    """Step completions dispatched at the same instant as the previous
    one, on another instance."""
    ends = pool.completions
    return sum(1 for (time, first), (other, second) in zip(ends, ends[1:])
               if time == other and first != second)


def test_silent_runs_match_the_per_step_path_on_random_pools(monkeypatch):
    seen = Counter()
    cut_run = Instance.cut_run

    def counted_cut(self, now, ended_at_now):
        end = cut_run(self, now, ended_at_now)
        seen["cuts"] += end is not None
        return end

    run_ahead = Instance.run_ahead

    def counted_run_ahead(self, start):
        end = run_ahead(self, start)
        seen["contended_runs"] += end is not None \
            and self._run[-1] is not None
        return end

    monkeypatch.setattr(Instance, "cut_run", counted_cut)
    monkeypatch.setattr(Instance, "run_ahead", counted_run_ahead)

    @settings(max_examples=400, deadline=None, database=None)
    @given(spec=pools())
    def check(spec):
        with per_step_path():
            expected, _reference = _run(spec)
        outcome, pool = _run(spec)
        assert outcome == expected
        if pool is not None:
            seen["co_timed"] += _co_timed_completions(pool)

    check()
    assert seen["cuts"] > 0
    assert seen["contended_runs"] > 0
    assert seen["co_timed"] > 0
