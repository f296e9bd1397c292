"""Order statistics the report is built from.

The percentile rule (choosing-metrics §1): report the median and the
highest percentile that still has at least ten samples beyond it.
``latency_p95_ms`` therefore needs 200 samples; with fewer the tail
falls back to the highest level the sample supports and the record
says which.
"""

from __future__ import annotations

import math
import statistics

TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def percentile(values, level: float) -> float:
    """Nearest-rank percentile of *values* (need not be sorted)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(level / 100.0 * len(ordered)))
    return ordered[rank - 1]


def supported_tail(count: int, cap: float = 99.9) -> float:
    """The highest level of :data:`TAIL_LEVELS` (at most *cap*) with at
    least :data:`MIN_BEYOND` of *count* samples beyond it; 50 when the
    sample supports no tail at all."""
    for level in TAIL_LEVELS:
        beyond = count * (100.0 - level) / 100.0
        if level <= cap and beyond >= MIN_BEYOND - 1e-9:
            return level
    return 50.0


def tail(values, cap: float) -> tuple[float, float]:
    """``(level, value)`` at the highest supported level ≤ *cap*."""
    level = supported_tail(len(values), cap)
    return level, percentile(values, level)


def median(values) -> float:
    return statistics.median(values)


def typical(groups) -> float:
    """The median of each group, averaged over the groups: the typical
    duration of a uniform mix of a few kinds of request.  The pooled
    median of such a mix is a poor statistic - with eight kinds, four
    cheap and four dear, it sits in the empty gap between the fourth
    and the fifth and jumps across it with a handful of samples."""
    return statistics.fmean(
        statistics.median(values) for values in groups.values()
    )


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them
    (the PR driver's own spread arithmetic)."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0

