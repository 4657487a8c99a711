"""Property-based tests of RateSchedule arrival generation.

The shaped workload generator is an exact inhomogeneous-Poisson sampler
over a piecewise-constant :class:`repro.serverless.RateSchedule`; these
properties pin the statistical and structural contracts the autoscale
benchmarks depend on: arrival counts concentrate around the integrated
rate, traces are deterministic per seed and sorted, composition is
exactly associative (tuple concatenation, not float re-summation), and
the default Poisson path — plus the default keep-alive policy — replays
the pre-policy golden snapshots bit for bit.
"""

import json
import math
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.serverless import (
    RateSchedule,
    RateSegment,
    ShareGPTWorkload,
    make_schedule,
    shape_names,
)
from repro.utils.rng import SeedSequence

segment = st.builds(
    RateSegment,
    start=st.floats(0.0, 50.0),
    end=st.floats(51.0, 120.0),
    rate=st.floats(0.0, 6.0),
)
schedule = st.builds(
    RateSchedule,
    segments=st.tuples(segment) | st.tuples(segment, segment)
    | st.tuples(segment, segment, segment),
)


class TestArrivalStatistics:
    @settings(max_examples=25, deadline=None)
    @given(sched=schedule, seed=st.integers(0, 10_000))
    def test_counts_concentrate_around_integrated_rate(self, sched, seed):
        """len(trace) ~ Poisson(integral): within 6 sigma + slack."""
        rng = SeedSequence(seed).child("prop").generator("arrivals")
        times = sched.arrival_times(rng)
        expected = sched.integral(0.0, sched.duration)
        slack = 6.0 * math.sqrt(expected) + 10.0
        assert abs(len(times) - expected) <= slack

    @settings(max_examples=25, deadline=None)
    @given(sched=schedule, seed=st.integers(0, 10_000))
    def test_traces_sorted_and_in_range(self, sched, seed):
        """Arrivals are strictly increasing and inside [0, duration)."""
        rng = SeedSequence(seed).child("prop").generator("arrivals")
        times = sched.arrival_times(rng)
        assert all(a < b for a, b in zip(times, times[1:]))
        assert all(0.0 <= t < sched.duration for t in times)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000),
           shape=st.sampled_from(sorted(set(shape_names()) - {"poisson"})),
           rps=st.floats(0.5, 4.0))
    def test_shaped_workloads_deterministic_per_seed(self, seed, shape,
                                                     rps):
        """Same seed + same shape => identical request traces."""
        make = lambda: ShareGPTWorkload(  # noqa: E731
            rps=rps, duration=80.0, seed=seed, shape=shape).generate()
        assert make() == make()


class TestComposition:
    @settings(max_examples=25, deadline=None)
    @given(a=schedule, b=schedule, c=schedule, seed=st.integers(0, 10_000))
    def test_composition_is_exactly_associative(self, a, b, c, seed):
        """(a+b)+c and a+(b+c) are the same schedule AND the same trace."""
        left = (a + b) + c
        right = a + (b + c)
        assert left == right
        rng_l = SeedSequence(seed).child("prop").generator("arrivals")
        rng_r = SeedSequence(seed).child("prop").generator("arrivals")
        assert left.arrival_times(rng_l) == right.arrival_times(rng_r)

    @settings(max_examples=25, deadline=None)
    @given(a=schedule, b=schedule, t0=st.floats(0.0, 60.0),
           width=st.floats(1.0, 60.0))
    def test_composed_integral_is_the_sum_of_integrals(self, a, b, t0,
                                                       width):
        """Superposed rates integrate additively (up to float assoc.)."""
        composed = a + b
        expected = a.integral(t0, t0 + width) + b.integral(t0, t0 + width)
        assert math.isclose(composed.integral(t0, t0 + width), expected,
                            rel_tol=1e-12, abs_tol=1e-12)

    def test_named_shapes_average_near_nominal_rate(self):
        """Every named shape integrates to ~rps * duration (+-40%)."""
        for shape in shape_names():
            sched = make_schedule(shape, 2.0, 240.0)
            total = sched.integral(0.0, 240.0)
            assert 0.6 * 480.0 <= total <= 1.4 * 480.0, shape


class TestKeepAliveGoldenReplay:
    """The default policy + default shape replay the pre-policy goldens.

    The 8 snapshots in ``tests/serverless/golden_sim_metrics.json`` were
    recorded before the autoscale layer existed; under
    ``autoscale="keep-alive"`` (the default) and the legacy Poisson
    generator they must still reproduce bit for bit — the policy layer's
    compatibility contract, stated as a test that runs with this suite.
    """

    def test_keep_alive_policy_replays_every_single_model_golden(self):
        from tests.serverless.test_golden_equivalence import (
            SINGLE_SCENARIOS,
            assert_matches,
            single_run,
        )
        golden_path = Path(__file__).parent.parent / "serverless" \
            / "golden_sim_metrics.json"
        with open(golden_path) as handle:
            golden = json.load(handle)
        for name in sorted(SINGLE_SCENARIOS):
            _simulator, metrics = single_run(name, autoscale="keep-alive")
            assert_matches(golden["single"][name], metrics, name)
            assert metrics.autoscale_decisions.get("idle_tick_armed",
                                                   0) == 0, name

    def test_keep_alive_policy_replays_every_multi_model_golden(self):
        from tests.serverless.test_golden_equivalence import (
            MULTI_SCENARIOS,
            _deployments,
            _multi_workloads,
            assert_matches,
        )
        from repro.serverless import MultiModelCluster, tag_workloads
        golden_path = Path(__file__).parent.parent / "serverless" \
            / "golden_sim_metrics.json"
        with open(golden_path) as handle:
            golden = json.load(handle)
        for name, rps in sorted(MULTI_SCENARIOS.items()):
            cluster = MultiModelCluster(_deployments(), num_gpus=4,
                                        autoscale="keep-alive")
            per_model = cluster.run(tag_workloads(_multi_workloads(rps)),
                                    horizon=60.0)
            for model in ("a", "b"):
                assert_matches(golden["multi"][name][model],
                               per_model[model], f"{name}/{model}")
