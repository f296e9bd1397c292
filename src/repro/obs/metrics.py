"""Counters, gauges, and histograms for the storage engine.

A :class:`MetricsRegistry` is a flat namespace of named instruments:

* :class:`Counter` — monotonically increasing totals (statements
  executed, rows shredded, transactions committed, retries, injected
  faults, ``plan_cache.hits``/``plan_cache.misses`` from the XPath→SQL
  translation cache, ``bulk.sessions``/``bulk.documents`` from bulk
  loading),
* :class:`Gauge` — last-written values (current savepoint depth),
* :class:`Histogram` — distributions with percentile summaries
  (per-statement latency), never O(observations) in memory or scrape
  time.

``snapshot()`` renders everything into plain JSON-able dicts;
``snapshot_json()``/``load_snapshot`` round-trip through JSON so a
benchmark run can persist its metrics next to the trace.

Counters and histograms additionally feed an O(1)-memory
:class:`~repro.obs.window.WindowRing`, so every instrument answers both
"how many ever" (lifetime) and "how many *lately*" —
``Counter.rate(60)`` is events/sec over the last minute,
``Histogram.window(60)`` is windowed count/qps/p50/p90/p99, and
``MetricsRegistry.windows_snapshot(60)`` renders the whole namespace's
recent behaviour for the ops routes.

The registry is thread-safe: instrument creation is guarded by a
registry lock and each instrument serializes its own updates, so the
serving layer's pool/executor threads can hammer one shared registry
without lost updates (``+=`` on a plain attribute is not atomic under
the interpreter — it is a read, an add, and a write).
"""

from __future__ import annotations

import json
import threading
from array import array
from dataclasses import dataclass, field

from repro.obs.window import N_BINS, WindowRing


def _rate_ring() -> WindowRing:
    return WindowRing(bins=False)


def _value_ring() -> WindowRing:
    return WindowRing(bins=True)


@dataclass
class Counter:
    """A monotonically increasing total (with a windowed rate)."""

    name: str
    value: int = 0
    window_ring: WindowRing = field(
        default_factory=_rate_ring, repr=False, compare=False
    )
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # Share the ring's lock: one acquisition per inc() covers both
        # the lifetime total and the windowed rate (hot-path cost).
        self._lock = self.window_ring._lock

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount
            self.window_ring._add_locked(amount)

    def window_count(self, seconds: float = 60.0) -> int:
        """Increments observed over the last *seconds*."""
        return self.window_ring.count(seconds)

    def rate(self, seconds: float = 60.0) -> float:
        """Increments per second over the last *seconds*."""
        return self.window_ring.rate(seconds)


@dataclass
class Gauge:
    """A last-value-wins measurement (plus its high-water mark)."""

    name: str
    value: float = 0.0
    high_water: float = 0.0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value
            if value > self.high_water:
                self.high_water = value

    def add(self, delta: float) -> float:
        """Atomically shift the gauge by *delta*; returns the new value
        (the serving layer's in-flight/in-use gauges move both ways)."""
        with self._lock:
            self.value += delta
            if self.value > self.high_water:
                self.high_water = self.value
            return self.value


#: Percentiles reported in every histogram summary.
PERCENTILES = (50, 90, 99)


@dataclass
class Histogram:
    """A distribution summarized in O(1) memory: exact count / total /
    min / max, percentile estimates from a lifetime array of the log
    bins of :mod:`repro.obs.window` (relative error ≤
    ``2^(1/SUB_BINS) - 1``, ~9 %), plus a sliding window of recent
    behaviour (:meth:`window`) over the same bins."""

    name: str
    count: int = 0
    total: float = 0.0
    min: float | None = None
    max: float | None = None
    window_ring: WindowRing = field(
        default_factory=_value_ring, repr=False, compare=False
    )
    _bins: array = field(  # lifetime counts, one per window log bin
        default_factory=lambda: array("Q", bytes(8 * N_BINS)),
        repr=False,
        compare=False,
    )
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # As with Counter: one lock acquisition per observation.
        self._lock = self.window_ring._lock

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            self._bins[self.window_ring._observe_locked(value)] += 1

    def window(self, seconds: float = 60.0) -> dict:
        """Windowed count/qps/mean/min/max/p50/p90/p99 over the last
        *seconds* (log-binned estimates; see :mod:`repro.obs.window`)."""
        return self.window_ring.summary(seconds)

    def _quantiles(self, percentiles) -> list:
        """Estimates for *percentiles* from one locked read of the bins."""
        with self._lock:
            count, low, high = self.count, self.min, self.max
            bins = self._bins.tolist()
        return [
            WindowRing._percentile_from(bins, count, p, low, high)
            for p in percentiles
        ]

    def percentile(self, p: float) -> float | None:
        """The *p*-th percentile (nearest rank) of everything observed:
        a log-bin estimate clamped to the exact min/max."""
        return self._quantiles((p,))[0]

    def summary(self) -> dict:
        """JSON-able summary: count/total/min/max/mean plus percentiles."""
        summary = {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": (self.total / self.count) if self.count else None,
        }
        for p, value in zip(PERCENTILES, self._quantiles(PERCENTILES)):
            summary[f"p{p}"] = value
        return summary


class MetricsRegistry:
    """A thread-safe namespace of counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- instrument access (create on first use) -----------------------------------

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            with self._lock:
                counter = self._counters.setdefault(name, Counter(name))
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            with self._lock:
                gauge = self._gauges.setdefault(name, Gauge(name))
        return gauge

    def histogram(self, name: str) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            with self._lock:
                histogram = self._histograms.setdefault(
                    name, Histogram(name)
                )
        return histogram

    # -- reading --------------------------------------------------------------------

    def counter_value(self, name: str) -> int:
        """Current value of counter *name* (0 if never incremented)."""
        counter = self._counters.get(name)
        return counter.value if counter else 0

    def counter_window_count(
        self, name: str, seconds: float = 60.0
    ) -> int:
        """Windowed count of counter *name* — 0 when the counter was
        never touched, *without* creating it (readers like health
        checks must not add instruments to the registry)."""
        counter = self._counters.get(name)
        return counter.window_count(seconds) if counter else 0

    def is_empty(self) -> bool:
        """True when no instrument was ever touched."""
        return not (self._counters or self._gauges or self._histograms)

    def snapshot(self, prefix: str | None = None) -> dict:
        """Everything as plain JSON-able dicts (sorted names).

        *prefix* restricts the snapshot to instruments whose name starts
        with it — e.g. ``snapshot(prefix="serve.")`` for just the
        serving layer, or ``prefix=f"pool.shard{n}."`` for one shard's
        pool, without dragging every other subsystem's instruments into
        a report.
        """
        # Freeze the instrument sets under the lock so a concurrent
        # first-touch creation never changes a dict mid-iteration.
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        if prefix is not None:
            counters = {
                name: counter for name, counter in counters.items()
                if name.startswith(prefix)
            }
            gauges = {
                name: gauge for name, gauge in gauges.items()
                if name.startswith(prefix)
            }
            histograms = {
                name: histogram for name, histogram in histograms.items()
                if name.startswith(prefix)
            }
        return {
            "counters": {
                name: counters[name].value for name in sorted(counters)
            },
            "gauges": {
                name: {
                    "value": gauges[name].value,
                    "high_water": gauges[name].high_water,
                }
                for name in sorted(gauges)
            },
            "histograms": {
                name: histograms[name].summary()
                for name in sorted(histograms)
            },
        }

    def windows_snapshot(
        self, seconds: float = 60.0, prefix: str | None = None
    ) -> dict:
        """Recent behaviour of every instrument: windowed summaries for
        histograms, windowed count + rate for counters.

        Unlike :meth:`snapshot` this is time-dependent (it reads the
        sliding windows), so it is reported separately — snapshots stay
        reproducible and JSON-round-trippable, windows answer "what is
        the system doing *now*" for ``/metrics`` and ``/snapshot``.
        """
        with self._lock:
            counters = dict(self._counters)
            histograms = dict(self._histograms)
        if prefix is not None:
            counters = {
                name: counter for name, counter in counters.items()
                if name.startswith(prefix)
            }
            histograms = {
                name: histogram for name, histogram in histograms.items()
                if name.startswith(prefix)
            }
        return {
            "window_seconds": seconds,
            "counters": {
                name: {
                    "count": counters[name].window_count(seconds),
                    "rate": counters[name].rate(seconds),
                }
                for name in sorted(counters)
            },
            "histograms": {
                name: histograms[name].window(seconds)
                for name in sorted(histograms)
            },
        }

    def snapshot_json(self, indent: int | None = None) -> str:
        """The snapshot serialized as JSON (the metrics exporter)."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


def load_snapshot(text: str) -> dict:
    """Parse a snapshot produced by :meth:`MetricsRegistry.snapshot_json`.

    Returns the same structure :meth:`~MetricsRegistry.snapshot` built, so
    ``load_snapshot(registry.snapshot_json()) == registry.snapshot()``.
    """
    return json.loads(text)
