"""Artifact placement layer: tier caches, policies, simulator wiring.

Covers the tiered :class:`NodeCache` (LRU, demotion cascade, promotion),
the three placement policies (flat / locality / affinity) including
eviction-victim choice, and the end-to-end wiring: the resolved tier
rewrites the profile's ``fetch_artifact`` stage, hits/misses/evictions
land in the metrics, and a store-cache hit caps the fetch at the DRAM
tier's cost instead of skipping it entirely.
"""

import math

import pytest

from repro.engine.loadplan import ScheduledStage
from repro.errors import InvalidValueError
from repro.serverless import (
    AffinityPlacement,
    ClusterSimulator,
    ColdStartProfile,
    FlatPlacement,
    LocalityPlacement,
    ModelDeployment,
    MultiModelCluster,
    NodeCache,
    PlacementPolicy,
    ServingCostModel,
    TaggedRequest,
    make_policy,
    policy_names,
)
from repro.serverless.placement import DEFAULT_TIERS, fetch_duration
from repro.serverless.workload import Request
from tests.timelines import chain_timeline

KEY_A = ("model", "a")
KEY_B = ("model", "b")
KEY_C = ("model", "c")


def fetch_heavy_profile(fetch=2.0):
    stages = [
        ScheduledStage("fetch_artifact", 0.0, fetch, lane="disk"),
        ScheduledStage("replay_alloc", fetch, fetch + 0.2, lane="cpu"),
        ScheduledStage("restore_graph[1]", fetch + 0.2, fetch + 0.8,
                       lane="gpu_compute"),
        ScheduledStage("restore_graph[2]", fetch + 0.8, fetch + 1.6,
                       lane="gpu_compute", background=True),
    ]
    return ColdStartProfile(loading_time=fetch + 1.6,
                            ready_time=fetch + 0.8,
                            timeline=chain_timeline(*stages))


class TestTierLadder:
    def test_ladder_is_warm_to_cold_with_an_unbounded_backstop(self):
        names = [tier.name for tier in DEFAULT_TIERS]
        assert names == ["gpu", "dram", "ssd", "remote"]
        scales = [tier.fetch_scale for tier in DEFAULT_TIERS]
        assert scales == sorted(scales) and scales[-1] == 1.0
        assert all(math.isfinite(tier.capacity) and tier.capacity > 0
                   for tier in DEFAULT_TIERS[:-1])
        assert math.isinf(DEFAULT_TIERS[-1].capacity)

    def test_fetch_duration_scales_by_tier(self):
        assert fetch_duration("gpu", 2.0) == 0.0
        assert fetch_duration("dram", 2.0) == pytest.approx(0.1)
        assert fetch_duration("remote", 2.0) == 2.0
        with pytest.raises(InvalidValueError):
            fetch_duration("tape", 2.0)


class TestNodeCache:
    def test_admission_lands_in_dram(self):
        cache = NodeCache(0)
        spilled = cache.admit(KEY_A, 1.0)
        assert spilled == []
        assert cache.tier_of(KEY_A) == "dram"
        assert cache.load("dram") == 1.0

    def test_overflow_demotes_lru_victim_one_tier_colder(self):
        cache = NodeCache(0)
        cache.admit(KEY_A, 1.0)
        cache.admit(KEY_B, 1.0)
        spilled = cache.admit(KEY_C, 1.0)   # DRAM capacity is 2.0
        assert spilled == []
        assert cache.tier_of(KEY_A) == "ssd"    # LRU victim demoted
        assert cache.tier_of(KEY_B) == "dram"
        assert cache.tier_of(KEY_C) == "dram"

    def test_spill_past_coldest_cache_tier_evicts(self):
        cache = NodeCache(0)   # dram 2.0 + ssd 8.0 hold ten artifacts
        keys = [("model", str(index)) for index in range(11)]
        for key in keys[:10]:
            assert cache.admit(key, 1.0) == []
        spilled = cache.admit(keys[10], 1.0)
        assert spilled == [(keys[0], "remote")]
        assert cache.tier_of(keys[0]) is None
        assert [e.kind for e in cache.events
                if e.key == keys[0]] == ["admit", "demote", "evict"]

    def test_oversized_artifact_skips_too_small_tiers(self):
        cache = NodeCache(0)   # gpu cap 1.0, dram 2.0, ssd 8.0
        cache.admit(KEY_A, 1.5, tier_name="gpu")
        assert cache.tier_of(KEY_A) == "dram"
        cache.admit(KEY_B, 4.0, tier_name="gpu")
        assert cache.tier_of(KEY_B) == "ssd"

    def test_hit_promotes_one_tier_warmer(self):
        cache = NodeCache(0)
        cache.admit(KEY_A, 1.0)
        tier, promoted, spilled = cache.hit(KEY_A)
        assert tier == "dram"
        assert promoted == ("dram", "gpu")
        assert spilled == []
        assert cache.tier_of(KEY_A) == "gpu"
        # A hit at the warmest tier stays put.
        tier, promoted, _ = cache.hit(KEY_A)
        assert tier == "gpu" and promoted is None

    def test_hit_refreshes_lru_order(self):
        cache = NodeCache(0)   # gpu capacity 1.0: two halves fit
        cache.admit(KEY_A, 0.5, tier_name="gpu")
        cache.admit(KEY_B, 0.5, tier_name="gpu")
        cache.hit(KEY_A)     # warmest tier: stays, B is now the LRU victim
        cache.admit(KEY_C, 0.5, tier_name="gpu")
        assert cache.tier_of(KEY_B) == "dram"
        assert cache.tier_of(KEY_A) == "gpu"

    def test_hit_on_non_resident_key_is_an_error(self):
        with pytest.raises(InvalidValueError):
            NodeCache(0).hit(KEY_A)


class TestPolicies:
    def test_flat_places_first_free_node_and_resolves_nothing(self):
        policy = FlatPlacement(4)
        assert policy.place([2, 1, 3], KEY_A) == 1
        assert policy.resolve_fetch(1, KEY_A, 1.0, 2.0) is None
        assert policy.choose_victim([2, 1, 3], KEY_A) == 0

    def test_locality_miss_admits_and_charges_remote(self):
        policy = LocalityPlacement(2)
        node = policy.place([0, 1], KEY_A)
        resolution = policy.resolve_fetch(node, KEY_A, 1.0, 2.0)
        assert resolution.hit is False
        assert resolution.tier == "remote"
        assert resolution.duration == 2.0
        assert resolution.seconds_saved == 0.0
        assert policy.caches[node].tier_of(KEY_A) == "dram"

    def test_locality_routes_to_warmest_resident_node(self):
        policy = LocalityPlacement(3)
        policy.caches[2].admit(KEY_A, 1.0)             # dram
        policy.caches[1].admit(KEY_A, 1.0, "ssd")      # colder
        assert policy.place([0, 1, 2], KEY_A) == 2
        resolution = policy.resolve_fetch(2, KEY_A, 1.0, 2.0)
        assert resolution.hit is True
        assert resolution.tier == "dram"
        assert resolution.duration == pytest.approx(0.1)
        assert resolution.seconds_saved == pytest.approx(1.9)
        assert resolution.promoted == ("dram", "gpu")

    def test_locality_falls_back_to_least_loaded(self):
        policy = LocalityPlacement(3)
        policy.record_placement(0)
        policy.record_placement(1)
        policy.record_placement(1)
        assert policy.place([0, 1, 2], KEY_A) == 2
        # Ties break on node id.
        policy.record_placement(2)
        assert policy.place([0, 2], KEY_B) == 0

    def test_locality_victim_choice_prefers_resident_node(self):
        policy = LocalityPlacement(3)
        policy.caches[2].admit(KEY_A, 1.0)
        assert policy.choose_victim([0, 1, 2], KEY_A) == 2
        assert policy.choose_victim([0, 1], KEY_A) == 0   # nothing resident
        assert policy.choose_victim([None, 2], KEY_A) == 1

    def test_affinity_falls_back_to_ever_hosting_node(self):
        policy = AffinityPlacement(3)
        policy.resolve_fetch(2, KEY_A, 1.0, 2.0)   # hosted on node 2
        # Evict the artifact so nothing is resident anywhere.
        policy.caches[2]._drop(KEY_A)
        assert policy.place([0, 1, 2], KEY_A) == 2
        assert policy.choose_victim([0, 1, 2], KEY_A) == 2
        # Locality (no history) would fall back to least-loaded instead.
        vanilla = LocalityPlacement(3)
        assert vanilla.place([0, 1, 2], KEY_A) == 0

    def test_make_policy_accepts_every_spec_form(self):
        assert isinstance(make_policy("locality", 2), LocalityPlacement)
        assert isinstance(make_policy("flat", 2), FlatPlacement)
        assert isinstance(make_policy("affinity", 2), AffinityPlacement)
        instance = FlatPlacement(2)
        assert make_policy(instance, 2) is instance
        with pytest.raises(InvalidValueError):
            make_policy("round-robin", 2)
        for spec in (AffinityPlacement, None):
            with pytest.raises(InvalidValueError):
                make_policy(spec, 2)
        assert policy_names() == ("affinity", "flat", "locality")


@pytest.fixture
def costs():
    return ServingCostModel("Llama2-7B")


def fetch_heavy_deployment(costs, cold_start_latency=3.0, **kwargs):
    return ModelDeployment(name=costs.config.name, costs=costs,
                           cold_start_latency=cold_start_latency,
                           profile=fetch_heavy_profile(), **kwargs)


class TestSimulatorWiring:
    def test_first_cold_start_misses_at_remote_cost(self, costs):
        deployment = fetch_heavy_deployment(costs, cold_start_latency=2.8)
        simulator = ClusterSimulator(deployment, 2)
        requests = [Request(request_id=0, arrival_time=0.0,
                            prompt_tokens=64, output_tokens=8)]
        metrics = simulator.run(requests, horizon=30.0)
        assert metrics.tier_misses == 1
        assert metrics.tier_hits == {}
        assert metrics.fetch_seconds_saved == 0.0
        instance = simulator.instances[simulator.model][0]
        assert instance.node_ids == (0,)
        assert instance.fetch_tier == "remote"
        # A remote-cost miss must not perturb the plan's timing at all.
        assert instance.ready_at == pytest.approx(
            deployment.profile.serving_ready_time)

    def test_relaunch_on_same_node_hits_dram(self, costs):
        simulator = ClusterSimulator(fetch_heavy_deployment(costs), 2)
        first = simulator._launch(simulator.model, 0.0)
        first.retired = True
        first.retired_at = 50.0
        second = simulator._launch(simulator.model, 50.0)
        assert second.node_ids == first.node_ids
        assert second.fetch_tier == "dram"
        rewritten = second.profile.timeline.stage("fetch_artifact")
        assert rewritten.duration == pytest.approx(0.1)   # 2.0 * 0.05
        assert second.profile.serving_ready_time < \
            first.profile.serving_ready_time
        assert simulator.metrics[simulator.model].tier_hits == {"dram": 1}
        assert simulator.metrics[simulator.model].fetch_seconds_saved == pytest.approx(1.9)

    def test_flat_policy_never_rewrites_the_profile(self, costs):
        deployment = fetch_heavy_deployment(costs)
        simulator = ClusterSimulator(deployment, 2, placement="flat")
        first = simulator._launch(simulator.model, 0.0)
        first.retired = True
        first.retired_at = 50.0
        second = simulator._launch(simulator.model, 50.0)
        assert second.profile is deployment.profile
        # Node identity is tracked (it is timing-inert) but no tier
        # resolution happens and no placement counters move.
        assert second.node_ids == (0,)
        assert second.fetch_tier == ""
        assert simulator.metrics[simulator.model].tier_hits == {}
        assert simulator.metrics[simulator.model].tier_misses == 0

    def test_store_cache_hit_charges_tier_resolved_fetch(self, costs,
                                                        tmp_path,
                                                        tiny2l_artifact):
        """Regression: a store-cache hit skips deserialization, not I/O.

        The in-memory LRU hit used to leave the plan's remote-cost
        ``fetch_artifact`` stage in place (charging a fetch that never
        happened at remote price under scalar profiles, and double-
        billing under staged ones).  The artifact bytes are in host
        memory after the first fetch, so repeats must pay the DRAM
        tier's cost.
        """
        from repro.core.store import ArtifactStore
        artifact, _ = tiny2l_artifact
        store = ArtifactStore(tmp_path)
        store.put(artifact)
        key = (artifact.gpu_name, artifact.model_name)
        deployment = fetch_heavy_deployment(costs, artifact_store=store,
                                            artifact_key=key)
        simulator = ClusterSimulator(deployment, 2, placement="flat")
        first = simulator._launch(simulator.model, 0.0)
        first.retired = True
        first.retired_at = 50.0
        second = simulator._launch(simulator.model, 50.0)
        assert simulator.metrics[simulator.model].store_cache_misses == 1
        assert simulator.metrics[simulator.model].store_cache_hits == 1
        # First fetch pays the full remote cost...
        assert first.profile.timeline.stage("fetch_artifact").duration \
            == pytest.approx(2.0)
        # ...the repeat is capped at the DRAM tier, even under flat
        # placement (the cap models the store's own host-memory cache).
        assert second.profile.timeline.stage("fetch_artifact").duration \
            == pytest.approx(0.1)
        assert second.profile.serving_ready_time < \
            first.profile.serving_ready_time


class TestMultiModelLocality:
    def _cluster(self, policy):
        profile = fetch_heavy_profile()
        deployments = [
            ModelDeployment(name=f"m{i}",
                            costs=ServingCostModel("Qwen1.5-4B"),
                            cold_start_latency=profile.serving_ready_time,
                            profile=profile)
            for i in range(4)
        ]
        return MultiModelCluster(deployments, num_gpus=2, keep_alive=1e9,
                                 placement=policy)

    def _burst_trace(self, cycles):
        tagged = []
        now, request_id = 0.0, 0
        for _ in range(cycles):
            for m in range(4):
                for k in range(3):
                    tagged.append(TaggedRequest(f"m{m}", Request(
                        request_id=request_id, arrival_time=now + 0.01 * k,
                        prompt_tokens=64, output_tokens=8)))
                    request_id += 1
                now += 8.0
        return tagged, now + 30.0

    def test_locality_reuses_residency_across_evictions(self):
        cluster = self._cluster("locality")
        tagged, horizon = self._burst_trace(cycles=6)
        cluster.run(tagged, horizon)
        aggregate = cluster.aggregate()
        # Four first-touch misses (one per model); every later cold
        # start lands on its artifact's node and hits the cache.
        assert aggregate.tier_misses == 4
        assert sum(aggregate.tier_hits.values()) == \
            aggregate.cold_starts - 4
        assert aggregate.fetch_seconds_saved > 0

    def test_locality_beats_flat_on_the_ttft_tail(self):
        results = {}
        for policy in ("flat", "locality"):
            cluster = self._cluster(policy)
            tagged, horizon = self._burst_trace(cycles=6)
            cluster.run(tagged, horizon)
            results[policy] = cluster.aggregate()
        assert results["locality"].p50_ttft < results["flat"].p50_ttft
        assert results["flat"].tier_hits == {}

    def test_custom_policy_instance_is_used_as_is(self):
        class PinToLast(PlacementPolicy):
            def place(self, free_nodes, key):
                return max(free_nodes)

            def resolve_fetch(self, node_id, key, size, base_duration):
                return None

        policy = PinToLast(2)
        cluster = self._cluster(policy)
        assert cluster.placement_policy is policy
        tagged, horizon = self._burst_trace(cycles=1)
        cluster.run(tagged, horizon)
        launched = [inst.node_ids for pool in cluster.instances.values()
                    for inst in pool]
        assert launched[0] == (1,)
