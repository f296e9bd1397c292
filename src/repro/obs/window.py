"""Sliding-window aggregation in O(1) memory.

A :class:`WindowRing` is a ring of per-second time buckets, each holding
a fixed-size log-binned value histogram plus count/sum/min/max.  It
answers "what were p50/p99/qps over the *last N seconds*" — the question
lifetime histograms (:class:`repro.obs.metrics.Histogram`) cannot,
because their summaries average over the whole process life and a
latency regression five seconds ago drowns in an hour of history.

Memory is constant: ``slots × (bins + a few scalars)`` regardless of
traffic (no per-observation storage).  Values land in log-spaced bins
(:data:`SUB_BINS` per octave above :data:`BASE_VALUE`), so windowed
percentiles are estimates with a bounded relative error of
``2^(1/SUB_BINS) - 1`` (~9% at the default 8 bins/octave) — the right
trade for an ops dashboard, where "p99 jumped 10x" matters and the
fourth significant digit does not.

Everything takes an injectable *clock* so tests can drive time by hand;
production uses :func:`time.monotonic`.
"""

from __future__ import annotations

import math
import threading
import time
from array import array

#: Values at or below this land in bin 0 (1 microsecond for latencies).
BASE_VALUE = 1e-6

#: Log bins per octave (value doubling); bounds percentile error ~9%.
SUB_BINS = 8

#: Total bins: 28 octaves above BASE_VALUE covers 1 µs .. ~268 s.
N_BINS = 28 * SUB_BINS

#: Default ring width — windows up to this many seconds are answerable.
DEFAULT_WIDTH_SECONDS = 120.0


def _bin_index(value: float) -> int:
    """The log bin *value* lands in (clamped to the ring's range)."""
    if value <= BASE_VALUE:
        return 0
    index = int(math.log2(value / BASE_VALUE) * SUB_BINS) + 1
    return index if index < N_BINS else N_BINS - 1


def _bin_value(index: int) -> float:
    """A representative value for bin *index* (geometric midpoint)."""
    if index <= 0:
        return BASE_VALUE
    return BASE_VALUE * 2.0 ** ((index - 0.5) / SUB_BINS)


class _Bucket:
    """One time slot of the ring."""

    __slots__ = ("bucket_id", "count", "total", "min", "max", "bins")

    def __init__(self, bins: bool) -> None:
        self.bucket_id = -1
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self.bins = array("I", bytes(4 * N_BINS)) if bins else None

    def reset(self, bucket_id: int) -> None:
        self.bucket_id = bucket_id
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None
        if self.bins is not None:
            for i in range(N_BINS):
                self.bins[i] = 0


class WindowRing:
    """A sliding window of per-second aggregates over recent values.

    With ``bins=True`` (the default) each bucket carries the log-binned
    histogram needed for windowed percentiles; ``bins=False`` keeps only
    count/sum (enough for rates — what counters need).
    """

    def __init__(
        self,
        width_seconds: float = DEFAULT_WIDTH_SECONDS,
        bucket_seconds: float = 1.0,
        bins: bool = True,
        clock=time.monotonic,
    ) -> None:
        if width_seconds <= 0 or bucket_seconds <= 0:
            raise ValueError("window width and bucket size must be > 0")
        self.width_seconds = width_seconds
        self.bucket_seconds = bucket_seconds
        self._clock = clock
        # One extra slot so a full-width window plus the partial current
        # bucket never alias onto each other.
        self._slots = [
            _Bucket(bins)
            for _ in range(int(math.ceil(width_seconds / bucket_seconds)) + 1)
        ]
        self._lock = threading.Lock()

    # -- writing ------------------------------------------------------------------

    def _current(self, now: float) -> _Bucket:
        """The bucket for *now*, reset if it last held an older second
        (lock held by the caller)."""
        bucket_id = int(now // self.bucket_seconds)
        slot = self._slots[bucket_id % len(self._slots)]
        if slot.bucket_id != bucket_id:
            slot.reset(bucket_id)
        return slot

    def observe(self, value: float) -> None:
        """Record one value (a latency, a size) at the current time."""
        with self._lock:
            self._observe_locked(value)

    def add(self, amount: float = 1.0) -> None:
        """Record *amount* events at the current time (rate counting —
        does not touch the value bins)."""
        with self._lock:
            self._add_locked(amount)

    def _observe_locked(self, value: float) -> int | None:
        """:meth:`observe` body with :attr:`_lock` already held — the
        metrics instruments share their lock with the ring so one
        acquisition covers both lifetime and windowed state.  Returns
        the log bin *value* landed in (``None`` in rate-only mode), so
        a lifetime histogram counts the same bin without a second
        ``log2``."""
        slot = self._current(self._clock())
        slot.count += 1
        slot.total += value
        if slot.min is None or value < slot.min:
            slot.min = value
        if slot.max is None or value > slot.max:
            slot.max = value
        if slot.bins is None:
            return None
        index = _bin_index(value)
        slot.bins[index] += 1
        return index

    def _add_locked(self, amount: float) -> None:
        """:meth:`add` body with :attr:`_lock` already held."""
        slot = self._current(self._clock())
        slot.count += int(amount)
        slot.total += amount

    # -- reading ------------------------------------------------------------------

    def _merge(self, window_seconds: float):
        """Fold the buckets of the last *window_seconds* together."""
        window = min(window_seconds, self.width_seconds)
        now = self._clock()
        current_id = int(now // self.bucket_seconds)
        oldest_id = current_id - int(
            math.ceil(window / self.bucket_seconds)
        ) + 1
        count = 0
        total = 0.0
        low: float | None = None
        high: float | None = None
        merged: list[int] | None = None
        with self._lock:
            for slot in self._slots:
                if not oldest_id <= slot.bucket_id <= current_id:
                    continue
                count += slot.count
                total += slot.total
                if slot.min is not None and (low is None or slot.min < low):
                    low = slot.min
                if slot.max is not None and (high is None or slot.max > high):
                    high = slot.max
                if slot.bins is not None:
                    if merged is None:
                        merged = [0] * N_BINS
                    for i in range(N_BINS):
                        merged[i] += slot.bins[i]
        return window, count, total, low, high, merged

    def count(self, window_seconds: float | None = None) -> int:
        """Events observed in the last *window_seconds*."""
        window = window_seconds or self.width_seconds
        _, count, _, _, _, _ = self._merge(window)
        return count

    def rate(self, window_seconds: float | None = None) -> float:
        """Events per second over the last *window_seconds*."""
        window = window_seconds or self.width_seconds
        window, count, _, _, _, _ = self._merge(window)
        return count / window if window else 0.0

    def summary(self, window_seconds: float | None = None) -> dict:
        """Windowed count/qps/mean/min/max plus p50/p90/p99 estimates.

        Percentile values are ``None`` when the ring has no value bins
        (rate-only mode) or the window saw nothing.
        """
        window = window_seconds or self.width_seconds
        window, count, total, low, high, merged = self._merge(window)
        summary = {
            "window_seconds": window,
            "count": count,
            "qps": count / window if window else 0.0,
            "mean": (total / count) if count else None,
            "min": low,
            "max": high,
        }
        for p in (50, 90, 99):
            summary[f"p{p}"] = self._percentile_from(
                merged, count, p, low, high
            )
        return summary

    @staticmethod
    def _percentile_from(
        merged, count: int, p: float, low: float | None, high: float | None
    ) -> float | None:
        """The *p*-th percentile (nearest rank) of *count* values
        binned into *merged*, clamped to their exact extremes *low* and
        *high* — the one rank walk behind windowed and lifetime
        (:meth:`repro.obs.metrics.Histogram.percentile`) quantiles."""
        if not merged or low is None:  # no bins, or no value observed
            return None
        rank = max(1, math.ceil(p / 100.0 * count))
        seen = 0
        for index, bin_count in enumerate(merged):
            seen += bin_count
            if seen >= rank:
                break
        return min(max(_bin_value(index), low), high)
