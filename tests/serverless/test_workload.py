"""Workload generator tests."""

import pytest

from repro.errors import InvalidValueError
from repro.serverless import workload
from repro.serverless.workload import (
    LENGTH_SIGMA,
    MAX_EXPECTED_ARRIVALS,
    SHAREGPT_MEAN_OUTPUT_TOKENS,
    SHAREGPT_MEAN_PROMPT_TOKENS,
    RateSchedule,
    RateSegment,
    ShareGPTWorkload,
    make_schedule,
    shape_names,
)
from repro.utils.rng import SeedSequence

NAN = float("nan")
INF = float("inf")


class TestArrivals:
    def test_deterministic_given_seed(self):
        a = ShareGPTWorkload(rps=5, duration=100, seed=1).generate()
        b = ShareGPTWorkload(rps=5, duration=100, seed=1).generate()
        assert [(r.arrival_time, r.prompt_tokens) for r in a] == \
            [(r.arrival_time, r.prompt_tokens) for r in b]

    def test_different_seed_differs(self):
        a = ShareGPTWorkload(rps=5, duration=100, seed=1).generate()
        b = ShareGPTWorkload(rps=5, duration=100, seed=2).generate()
        assert [r.arrival_time for r in a] != [r.arrival_time for r in b]

    def test_rate_approximates_rps(self):
        requests = ShareGPTWorkload(rps=10, duration=500, seed=3).generate()
        assert len(requests) == pytest.approx(5000, rel=0.1)

    def test_arrivals_sorted_and_within_duration(self):
        requests = ShareGPTWorkload(rps=5, duration=50, seed=4).generate()
        times = [r.arrival_time for r in requests]
        assert times == sorted(times)
        assert all(0 < t < 50 for t in times)

    def test_request_ids_sequential(self):
        requests = ShareGPTWorkload(rps=5, duration=20, seed=5).generate()
        assert [r.request_id for r in requests] == list(range(len(requests)))


class TestLengths:
    def test_means_match_sharegpt(self):
        """§2.2: ShareGPT averages 161 prompt / 338 output tokens."""
        requests = ShareGPTWorkload(rps=20, duration=2000, seed=6).generate()
        mean_prompt = sum(r.prompt_tokens for r in requests) / len(requests)
        mean_output = sum(r.output_tokens for r in requests) / len(requests)
        assert mean_prompt == pytest.approx(SHAREGPT_MEAN_PROMPT_TOKENS,
                                            rel=0.1)
        assert mean_output == pytest.approx(SHAREGPT_MEAN_OUTPUT_TOKENS,
                                            rel=0.1)

    def test_lengths_positive(self):
        requests = ShareGPTWorkload(rps=5, duration=100, seed=7).generate()
        assert all(r.prompt_tokens >= 1 and r.output_tokens >= 1
                   for r in requests)

    @pytest.mark.parametrize("shape", (None,) + shape_names())
    @pytest.mark.parametrize("seed", [0, 3, 17, 2024])
    def test_lengths_match_one_scalar_draw_each(self, shape, seed):
        """The lengths are drawn in one array call per trace; each is
        the value one scalar draw per length, prompt then output, request
        by request, gave (the generator's original loop)."""
        rps, duration = 3.0, 200.0
        generated = ShareGPTWorkload(rps=rps, duration=duration, seed=seed,
                                     shape=shape).generate()
        if shape in (None, "poisson"):
            seeds = SeedSequence(seed).child("workload", rps, duration)
            arrival_rng = seeds.generator("arrivals")
            arrivals = []
            now = arrival_rng.exponential(1.0 / rps)
            while now < duration:
                arrivals.append(now)
                now += arrival_rng.exponential(1.0 / rps)
        else:
            seeds = SeedSequence(seed).child("workload-shaped", rps,
                                             duration, shape)
            arrivals = make_schedule(shape, rps, duration).arrival_times(
                seeds.generator("arrivals"), horizon=duration)
        length_rng = seeds.generator("lengths")
        expected = []
        for request_id, now in enumerate(arrivals):
            prompt = max(1, int(length_rng.lognormal(workload._MU_PROMPT,
                                                     LENGTH_SIGMA)))
            output = max(1, int(length_rng.lognormal(workload._MU_OUTPUT,
                                                     LENGTH_SIGMA)))
            expected.append((request_id, now.hex(), prompt, output))
        assert len(expected) > 100
        assert [(r.request_id, r.arrival_time.hex(), r.prompt_tokens,
                 r.output_tokens) for r in generated] == expected
        assert all(type(r.prompt_tokens) is int
                   and type(r.output_tokens) is int for r in generated)


class TestValidation:
    def test_rejects_bad_rates(self):
        with pytest.raises(InvalidValueError):
            ShareGPTWorkload(rps=0, duration=10)
        with pytest.raises(InvalidValueError):
            ShareGPTWorkload(rps=1, duration=0)

    @pytest.mark.parametrize("rps,duration", [
        (NAN, 10.0), (INF, 10.0), (1.0, NAN), (1.0, INF), (-INF, 10.0)])
    def test_rejects_non_finite_rates(self, rps, duration):
        # Never generate() with these: an infinite or NaN rate or horizon
        # makes the arrival loop never end.
        with pytest.raises(InvalidValueError, match="finite"):
            ShareGPTWorkload(rps=rps, duration=duration)
        with pytest.raises(InvalidValueError, match="finite"):
            ShareGPTWorkload(rps=rps, duration=duration, shape="burst")
        with pytest.raises(InvalidValueError, match="finite"):
            make_schedule("burst", rps, duration)

    def test_rejects_unknown_shape(self):
        with pytest.raises(InvalidValueError):
            ShareGPTWorkload(rps=1, duration=10, shape="sawtooth")

    def test_expected_arrivals_are_capped(self):
        # Construction only: generate() would loop once per arrival.
        assert MAX_EXPECTED_ARRIVALS == 1_000_000
        ShareGPTWorkload(rps=1000, duration=1000)
        with pytest.raises(InvalidValueError, match="1,000,000"):
            ShareGPTWorkload(rps=1000, duration=1000.001)
        with pytest.raises(InvalidValueError, match="1,000,000"):
            make_schedule("burst", 1e6, 2.0)


class TestRateSchedule:
    def test_segment_validation(self):
        with pytest.raises(InvalidValueError):
            RateSegment(start=5.0, end=5.0, rate=1.0)
        with pytest.raises(InvalidValueError):
            RateSegment(start=0.0, end=1.0, rate=-0.5)
        with pytest.raises(InvalidValueError):
            RateSchedule(())

    def test_overlapping_segments_add(self):
        schedule = RateSchedule((RateSegment(0.0, 10.0, 1.0),
                                 RateSegment(5.0, 10.0, 2.0)))
        assert schedule.rate_at(2.0) == 1.0
        assert schedule.rate_at(7.0) == 3.0
        assert schedule.integral(0.0, 10.0) == pytest.approx(20.0)

    def test_shift_translates_every_segment(self):
        schedule = RateSchedule((RateSegment(0.0, 10.0, 1.0),)).shift(5.0)
        assert schedule.rate_at(2.0) == 0.0
        assert schedule.rate_at(7.0) == 1.0
        assert schedule.duration == 15.0

    def test_named_shapes_build(self):
        for shape in shape_names():
            schedule = make_schedule(shape, 2.0, 120.0)
            assert schedule.duration <= 120.0 + 1e-9
            assert schedule.integral(0.0, 120.0) > 0.0

    def test_unknown_shape_rejected(self):
        with pytest.raises(InvalidValueError):
            make_schedule("sawtooth", 1.0, 10.0)


class TestShapedGeneration:
    def test_poisson_shape_is_the_legacy_generator(self):
        """``shape="poisson"`` must not perturb the golden RNG stream."""
        legacy = ShareGPTWorkload(rps=3, duration=60, seed=9).generate()
        shaped = ShareGPTWorkload(rps=3, duration=60, seed=9,
                                  shape="poisson").generate()
        assert legacy == shaped

    def test_burst_shape_concentrates_arrivals(self):
        """Burst windows hold ~all arrivals; the gaps are silent."""
        requests = ShareGPTWorkload(rps=2, duration=160, seed=10,
                                    shape="burst").generate()
        in_burst = sum(1 for r in requests
                       if (r.arrival_time % 40.0) < 10.0)
        assert in_burst == len(requests)

    def test_shaped_trace_sorted_and_within_duration(self):
        requests = ShareGPTWorkload(rps=2, duration=120, seed=11,
                                    shape="spike_train").generate()
        times = [r.arrival_time for r in requests]
        assert times == sorted(times)
        assert all(0 <= t < 120 for t in times)
        assert [r.request_id for r in requests] == \
            list(range(len(requests)))

    def test_shaped_and_legacy_streams_are_independent(self):
        """The shaped path derives from a distinct seed namespace."""
        legacy = ShareGPTWorkload(rps=2, duration=120, seed=13).generate()
        shaped = ShareGPTWorkload(rps=2, duration=120, seed=13,
                                  shape="ramp").generate()
        assert [r.arrival_time for r in legacy] != \
            [r.arrival_time for r in shaped]
