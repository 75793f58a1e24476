"""The percentile rule: the highest percentile with >= 10 samples beyond it."""

import pytest

from benchmarks.e2e import stats


def test_nearest_rank_percentile():
    samples = list(range(1, 101))
    assert stats.percentile(samples, 50) == 50
    assert stats.percentile(samples, 99) == 99
    assert stats.percentile(samples, 100) == 100
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize(
    "count, level",
    [(5, 50.0), (19, 50.0), (20, 50.0), (100, 90.0), (500, 98.0), (999, 98.9), (1000, 99.0),
     (50_000, 99.0)],
)
def test_supported_tail_level(count, level):
    assert stats.supported_tail_level(count) == level


@pytest.mark.parametrize("count", [20, 37, 100, 640, 1000, 4321])
def test_tail_leaves_ten_samples_beyond(count):
    samples = [float(i) for i in range(count)]
    top = stats.tail(samples)
    assert top.count == count
    assert sum(1 for s in samples if s > top.value) >= stats.TAIL_MIN_BEYOND
    # ... and it is the highest such level (to 0.1) unless capped at p99.
    if top.level < 99.0:
        higher = stats.percentile(samples, top.level + 0.1)
        assert sum(1 for s in samples if s > higher) < stats.TAIL_MIN_BEYOND


def test_tail_cap():
    samples = [float(i) for i in range(1000)]
    assert stats.tail(samples, cap=90.0).level == 90.0


def test_spread_matches_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 8.0, 6.0, 10.0]
    got = stats.spread(values)
    assert (got.median, got.count) == (5.5, 10)
    assert (got.q1, got.q3) == (2.75, 8.25)
    assert stats.spread([4.2]) == stats.Spread(4.2, 4.2, 4.2, 1)
