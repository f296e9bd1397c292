"""The percentile rule: the highest level with >= 10 samples beyond."""

import pytest

from perfbench import stats


@pytest.mark.parametrize(
    "count, cap, level",
    [
        (9, 95.0, 50.0),        # no tail at all
        (40, 95.0, 75.0),       # 10 beyond p75
        (100, 95.0, 90.0),      # exactly 10 beyond p90
        (199, 95.0, 90.0),      # 9.95 beyond p95: not enough
        (200, 95.0, 95.0),      # exactly 10 beyond p95
        (999, 99.0, 95.0),
        (1000, 99.0, 99.0),     # exactly 10 beyond p99
        (100000, 95.0, 95.0),   # the cap holds however large the sample
        (10000, 99.9, 99.9),
    ],
)
def test_supported_tail(count, cap, level):
    assert stats.supported_tail(count, cap) == level


def test_tail_reports_level_and_value():
    values = list(range(1, 201))
    level, value = stats.tail(values, cap=95.0)
    assert (level, value) == (95.0, 190)
    # exactly ten samples lie beyond the reported value
    assert sum(1 for v in values if v > value) == 10


def test_percentile_nearest_rank():
    assert stats.percentile([5, 1, 3], 50) == 3
    assert stats.percentile([1, 2, 3, 4], 50) == 2
    assert stats.percentile([1, 2, 3, 4], 100) == 4
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_spread_matches_the_driver_arithmetic():
    import statistics

    values = [10.0, 10.5, 9.5, 10.2, 9.9, 10.1, 10.4, 9.7, 10.0, 10.3]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)
