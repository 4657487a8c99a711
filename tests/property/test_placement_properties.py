"""Properties of the artifact placement layer (repro.serverless.placement).

Four invariants the cache hierarchy and the policies must hold under
arbitrary admit/hit traffic:

- No cache tier's resident load ever exceeds its declared capacity.
- A hit on an artifact implies it was admitted (or demoted/promoted into
  a tier) earlier with no spill-out of the hierarchy in between — replayed
  straight from the cache's append-only event log.
- Placement is deterministic: the same request trace under the same
  policy produces identical placements, metrics, and cache logs.
- The tier-resolved ``fetch_artifact`` durations are monotone in tier
  coldness: a warmer tier never fetches slower, and the rewrite never
  exceeds the plan's remote baseline.
"""

from hypothesis import given, settings, strategies as st

from repro.engine.loadplan import ScheduledStage
from repro.serverless import (
    ColdStartProfile,
    ModelDeployment,
    MultiModelCluster,
    NodeCache,
    ServingCostModel,
    TaggedRequest,
    make_policy,
)
from repro.serverless.placement import DEFAULT_TIERS, fetch_duration
from repro.serverless.workload import Request
from tests.timelines import chain_timeline

# -- traffic strategies ------------------------------------------------------

#: Artifact keys are a small pool so hits actually happen.
_keys = st.integers(0, 5).map(lambda n: ("model", f"m{n}"))

#: One cache operation: touch the keyed artifact (admit on miss, hit on
#: residency) with a size drawn from a small positive grid.
_ops = st.lists(st.tuples(_keys, st.integers(1, 4).map(lambda n: n / 2)),
                min_size=1, max_size=60)


def _drive(cache, ops):
    """Replay one admit-or-hit trace against a node cache."""
    for key, size in ops:
        if cache.tier_of(key) is None:
            cache.admit(key, size)
        else:
            cache.hit(key)


class TestTierCapacityProperty:
    @settings(max_examples=200, deadline=None)
    @given(ops=_ops)
    def test_capacity_never_exceeded(self, ops):
        cache = NodeCache(0)
        for key, size in ops:
            if cache.tier_of(key) is None:
                cache.admit(key, size)
            else:
                cache.hit(key)
            for tier in DEFAULT_TIERS[:-1]:
                assert cache.load(tier.name) <= tier.capacity + 1e-12, \
                    tier.name


class TestHitImpliesResidencyProperty:
    @settings(max_examples=200, deadline=None)
    @given(ops=_ops)
    def test_every_hit_has_a_prior_placement_without_spill(self, ops):
        cache = NodeCache(0)
        _drive(cache, ops)
        # Replay the append-only log: a "hit" on a key requires the key
        # to be resident, i.e. placed ("admit"/"demote"/"promote") at
        # some earlier seq with no intervening "evict" (spill-out).
        resident = set()
        for event in cache.events:
            if event.kind in ("admit", "demote", "promote"):
                resident.add(event.key)
            elif event.kind == "evict":
                resident.discard(event.key)
            elif event.kind == "hit":
                assert event.key in resident, event
        # And the log's final residency view matches the cache's own.
        for key in resident:
            assert cache.tier_of(key) is not None
        assert cache.events == sorted(cache.events,
                                      key=lambda e: e.seq)


# -- determinism over whole simulations --------------------------------------

def _profile():
    stages = [
        ScheduledStage("fetch_artifact", 0.0, 1.0, lane="disk"),
        ScheduledStage("restore", 1.0, 1.5, lane="gpu_compute"),
    ]
    return ColdStartProfile(loading_time=1.5, ready_time=1.5,
                            timeline=chain_timeline(*stages))


def _run_cluster(policy, trace):
    profile = _profile()
    deployments = [
        ModelDeployment(name=f"m{i}", costs=ServingCostModel("Qwen1.5-4B"),
                        cold_start_latency=1.5, profile=profile)
        for i in range(3)
    ]
    cluster = MultiModelCluster(deployments, num_gpus=2, placement=policy)
    tagged = [TaggedRequest(f"m{model}", Request(
        request_id=i, arrival_time=round(arrival, 3),
        prompt_tokens=64, output_tokens=8))
        for i, (model, arrival) in enumerate(trace)]
    tagged.sort(key=lambda t: t.request.arrival_time)
    cluster.run(tagged, horizon=200.0)
    agg = cluster.aggregate()
    placements = [(model, inst.node_ids, inst.fetch_tier)
                  for model, pool in cluster.instances.items()
                  for inst in pool]
    return agg.summary(), placements


_traces = st.lists(st.tuples(st.integers(0, 2),
                             st.floats(0.0, 100.0, allow_nan=False)),
                   min_size=1, max_size=30)


class TestPlacementDeterminismProperty:
    @settings(max_examples=25, deadline=None)
    @given(trace=_traces,
           policy=st.sampled_from(["flat", "locality", "affinity"]))
    def test_same_trace_same_placements(self, trace, policy):
        first = _run_cluster(policy, trace)
        second = _run_cluster(policy, trace)
        assert first == second


# -- fetch-cost monotonicity --------------------------------------------------

class TestFetchMonotonicityProperty:
    @settings(max_examples=200, deadline=None)
    @given(base=st.floats(0.0, 100.0, allow_nan=False))
    def test_warmer_tiers_never_fetch_slower(self, base):
        durations = [fetch_duration(tier.name, base)
                     for tier in DEFAULT_TIERS]
        assert durations == sorted(durations)
        assert all(d <= base for d in durations)

    @settings(max_examples=100, deadline=None)
    @given(base=st.floats(0.01, 50.0, allow_nan=False))
    def test_rewritten_profile_ready_monotone_in_tier(self, base):
        stages = [
            ScheduledStage("fetch_artifact", 0.0, base, lane="disk"),
            ScheduledStage("restore", base, base + 0.5,
                           lane="gpu_compute"),
        ]
        profile = ColdStartProfile(loading_time=base + 0.5,
                                   ready_time=base + 0.5,
                                   timeline=chain_timeline(*stages))
        readiness = [
            profile.with_fetch_duration(
                fetch_duration(tier.name, base)).serving_ready_time
            for tier in DEFAULT_TIERS
        ]
        assert readiness == sorted(readiness)
        assert readiness[-1] == profile.serving_ready_time


# -- policy construction ------------------------------------------------------

class TestPolicyFactoryProperty:
    @settings(max_examples=50, deadline=None)
    @given(nodes=st.integers(1, 8))
    def test_fresh_policies_share_no_cache_state(self, nodes):
        first = make_policy("locality", nodes)
        second = make_policy("locality", nodes)
        first.caches[0].admit(("model", "x"), 1.0)
        assert second.caches[0].tier_of(("model", "x")) is None
        assert len(first.caches) == nodes
