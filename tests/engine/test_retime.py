"""retime_stages: a placed timeline re-list-scheduled with new durations.

The locality placement layer rewrites fetch stages per storage tier
through :func:`repro.engine.loadplan.retime_stages`; the result must be
the schedule the plan itself would produce with that duration, on both
the pipelined plan (one ``fetch_artifact``) and the chunk-streamed plan
(one ``fetch_chunk[i]`` per manifest chunk).
"""

from collections import defaultdict

import pytest

from repro.core.chunks import (
    KIND_DUMPS,
    KIND_GRAPH_HEAD,
    KIND_GRAPH_TAIL,
    KIND_KERNELS,
    KIND_REPLAY,
    ChunkManifest,
    ChunkRef,
)
from repro.engine import loadplan
from repro.engine.loadplan import (
    FETCH_ARTIFACT,
    FETCH_CHUNK_PATTERN,
    ScheduledStage,
    retime_stages,
)
from repro.engine.strategies import chunked_medusa_plan, pipelined_medusa_plan
from repro.errors import EngineError
from repro.serverless import (
    ColdStartProfile,
    ModelDeployment,
    MultiModelCluster,
    ServingCostModel,
    TaggedRequest,
)
from repro.serverless.workload import Request
from tests.timelines import chain_timeline

BATCHES = (1, 2, 4)


def _manifest() -> ChunkManifest:
    """A chunk manifest in canonical fetch order, tails last."""
    def ref(name, kind, batch=None):
        return ChunkRef(name, f"digest-{name}", 100, kind, (), batch)

    refs = [ref("kernels", KIND_KERNELS), ref("replay-0", KIND_REPLAY),
            ref("replay-1", KIND_REPLAY), ref("dumps", KIND_DUMPS)]
    refs += [ref(f"head-{b}", KIND_GRAPH_HEAD, b) for b in sorted(
        BATCHES, reverse=True)]
    refs += [ref(f"tail-{b}", KIND_GRAPH_TAIL, b) for b in sorted(
        BATCHES, reverse=True)]
    return ChunkManifest({"batches": list(BATCHES)}, tuple(refs))


def _plans():
    return {"pipelined": pipelined_medusa_plan(BATCHES),
            "chunked": chunked_medusa_plan(_manifest())}


def _durations(plan):
    """A distinct nonzero duration for every declared stage."""
    return {stage.name: 0.25 + 0.125 * index
            for index, stage in enumerate(plan.stages)}


def _fetch_stages(plan):
    return [stage.name for stage in plan.stages
            if stage.name == FETCH_ARTIFACT
            or FETCH_CHUNK_PATTERN.match(stage.name)]


def _cases():
    """(plan, overridden stage names): each fetch stage alone, and the
    whole chunk stream at once (what a tier-resolved fetch rewrites)."""
    cases = []
    for key, plan in _plans().items():
        for name in _fetch_stages(plan):
            cases.append((key, (name,)))
    cases.append(("chunked", tuple(_fetch_stages(_plans()["chunked"]))))
    return cases


@pytest.mark.parametrize("key,names", _cases())
@pytest.mark.parametrize("scale", [0.0, 0.05, 8.0])
class TestRetimeMatchesSchedule:
    def _retimed(self, key, names, scale):
        plan = _plans()[key]
        durations = _durations(plan)
        timeline = plan.schedule(durations)
        new = {name: durations[name] * scale for name in names}
        return (timeline, retime_stages(timeline, new),
                plan.schedule({**durations, **new}), new)

    def test_equals_the_plan_scheduled_with_that_duration(self, key, names,
                                                          scale):
        _, retimed, expected, _ = self._retimed(key, names, scale)
        assert [(s.name, s.lane, s.critical, s.background)
                for s in retimed.stages] == \
            [(s.name, s.lane, s.critical, s.background)
             for s in expected.stages]
        for got, want in zip(retimed.stages, expected.stages):
            assert got.start == pytest.approx(want.start, abs=1e-12)
            assert got.end == pytest.approx(want.end, abs=1e-12)
        assert retimed.ready == pytest.approx(expected.ready)
        assert retimed.total == pytest.approx(expected.total)
        assert retimed.plan == expected.plan
        assert retimed.deps == expected.deps

    def test_dependents_move_and_lanes_stay_serial(self, key, names, scale):
        timeline, retimed, _, new = self._retimed(key, names, scale)
        for name, duration in new.items():
            assert retimed.stage(name).duration == \
                pytest.approx(duration, abs=1e-12)
        for stage in retimed.stages:
            starts = [retimed.stage(dep).end
                      for dep in retimed.deps[stage.name]]
            assert stage.start >= max(starts, default=0.0) - 1e-12
        by_lane = defaultdict(list)
        for stage in retimed.stages:
            by_lane[stage.lane].append(stage)
        for stages in by_lane.values():
            for first, second in zip(stages, stages[1:]):
                assert second.start >= first.end - 1e-12
        # A slower fetch pushes the makespan out (and readiness, unless
        # only background tail chunks slowed); the whole fetch sped up
        # pulls readiness in.
        foreground = not all(timeline.stage(name).background
                             for name in names)
        if scale > 1:
            assert retimed.total > timeline.total
            assert (retimed.ready > timeline.ready) == foreground
        elif names == (FETCH_ARTIFACT,) or len(names) > 1:
            assert retimed.ready < timeline.ready

    def test_critical_path_spans_the_new_ready_instant(self, key, names,
                                                       scale):
        _, retimed, _, _ = self._retimed(key, names, scale)
        path = sorted((s for s in retimed.stages if s.critical),
                      key=lambda s: (s.start, s.end))
        assert not any(stage.background for stage in path)
        assert path[-1].end == pytest.approx(retimed.ready)
        assert sum(stage.duration for stage in path) == \
            pytest.approx(retimed.ready)


class TestRetimeEdges:
    @pytest.fixture
    def timeline(self):
        plan = pipelined_medusa_plan(BATCHES)
        return plan.schedule(_durations(plan))

    def test_same_duration_returns_the_same_object(self, timeline):
        same = timeline.stage(FETCH_ARTIFACT).duration
        assert retime_stages(timeline, {FETCH_ARTIFACT: same}) is timeline
        assert retime_stages(timeline, {}) is timeline

    def test_unknown_stage_raises(self, timeline):
        with pytest.raises(EngineError, match="no stage 'nope'"):
            retime_stages(timeline, {"nope": 1.0})

    @pytest.mark.parametrize("bad", [-0.5, float("nan"), float("inf")])
    def test_invalid_duration_raises(self, timeline, bad):
        with pytest.raises(EngineError, match="invalid duration"):
            retime_stages(timeline, {FETCH_ARTIFACT: bad})

    @pytest.mark.parametrize("bad", [-0.5, float("nan"), float("inf")])
    def test_schedule_rejects_invalid_duration(self, bad):
        plan = pipelined_medusa_plan(BATCHES)
        with pytest.raises(EngineError, match="invalid duration"):
            plan.schedule({**_durations(plan), FETCH_ARTIFACT: bad})


class TestRetimeHook:
    def test_locality_simulation_calls_the_module_attribute(
            self, monkeypatch):
        """Per-layer metrics wrap ``loadplan.retime_stages`` by module
        attribute; the serving layer must call it through that attribute
        or the wrapper silently counts nothing."""
        calls = []

        def counting(timeline, durations):
            calls.append(dict(durations))
            return retime_stages(timeline, durations)

        monkeypatch.setattr(loadplan, "retime_stages", counting)
        timeline = chain_timeline(
            ScheduledStage("fetch_artifact", 0.0, 2.0, lane="disk"),
            ScheduledStage("restore_graph[1]", 2.0, 2.5,
                           lane="gpu_compute"))
        profile = ColdStartProfile(loading_time=2.5, ready_time=2.5,
                                   timeline=timeline)
        cluster = MultiModelCluster(
            [ModelDeployment(name=name, costs=ServingCostModel("Qwen1.5-4B"),
                             cold_start_latency=2.5, profile=profile)
             for name in ("a", "b")],
            num_gpus=1, keep_alive=1e9, placement="locality")
        # One GPU, two models taking turns: each wave evicts the other
        # model's idle instance, and the third lands on the node whose
        # cache still holds model a's artifact.
        tagged = [TaggedRequest(name, Request(request_id=index,
                                              arrival_time=20.0 * index,
                                              prompt_tokens=64,
                                              output_tokens=4))
                  for index, name in enumerate("aba")]
        cluster.run(tagged, horizon=90.0)
        assert cluster.aggregate().tier_hits
        assert calls
        assert all(set(call) == {"fetch_artifact"} for call in calls)
