import pytest

from bench.stats import (
    TAIL_SAMPLES,
    failed_frac,
    nearest_rank,
    quartiles,
    tail_percentile,
)


@pytest.mark.parametrize("count", [21, 30, 57, 100, 101, 999, 1000, 4321])
def test_tail_percentile_leaves_ten_samples_beyond(count):
    values = list(range(count))
    percent = tail_percentile(count)
    cut = nearest_rank(values, percent)
    assert sum(1 for value in values if value > cut) >= TAIL_SAMPLES
    if percent < 99:   # and it is the highest such whole percentile
        higher = nearest_rank(values, percent + 1)
        assert sum(1 for value in values if value > higher) < TAIL_SAMPLES


@pytest.mark.parametrize("count", [0, 1, 10, 20])
def test_no_tail_percentile_above_the_median_for_small_samples(count):
    assert tail_percentile(count) is None


def test_known_tail_percentiles():
    assert tail_percentile(100) == 90
    assert tail_percentile(1000) == 99


def test_failed_frac():
    assert failed_frac(8, 0) == 0.0
    assert failed_frac(8, 2) == 0.25
    with pytest.raises(ValueError):
        failed_frac(0, 0)


def test_quartiles_match_statistics_quantiles():
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)
