"""Wide-event request log: one structured record per query/update.

The serving layer emits exactly one event per request — a "wide event"
carrying everything known about it (shard fan-out breakdown, per-shard
latency, plan- and result-cache warmth, lint verdict, deadline slack,
outcome) — instead of scattering the same facts over a dozen log lines.
One record per request is what makes questions like "show me the p99
queries that missed both the result and the plan cache" answerable with
a single ``jq`` filter.

:class:`RequestLog` is the bounded, non-blocking sink those events go
through.  The serving hot path calls :meth:`RequestLog.emit`, which

* always appends to an in-memory ring (``deque(maxlen=capacity)``) —
  the tail the gateway's ``/snapshot`` serves, and
* optionally stages the event for a daemon writer thread that streams
  JSON lines to a file.

``emit`` never blocks and never raises into the request path: it only
appends under a lock.  The writer drains the staged batch on a short
periodic tick rather than waking per event — a per-event queue handoff
costs two context switches and a round of interpreter-lock churn *per
request*, which measurably inflates warm query latency.  When the
staging buffer overflows (disk slower than the event rate), the oldest
staged events are *dropped* and counted (:attr:`RequestLog.dropped`):
a slow disk must degrade the log, not the queries.
"""

from __future__ import annotations

import json
import threading
from collections import deque

#: Seconds between writer-thread drains of the staged batch.
FLUSH_INTERVAL = 0.25


class RequestLog:
    """Bounded non-blocking sink for wide request events.

    :param capacity: in-memory tail size and staging-buffer bound.
    :param path: optional JSONL file; when given, a daemon thread drains
        staged events to it (one JSON object per line, appended).
    :param flush_interval: seconds between writer drains.
    """

    def __init__(
        self,
        capacity: int = 1024,
        path: str | None = None,
        flush_interval: float = FLUSH_INTERVAL,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be > 0")
        self.capacity = capacity
        self.path = path
        self.flush_interval = flush_interval
        #: Events dropped because the staging buffer overflowed.
        self.dropped = 0
        #: Events accepted into the tail, for rate accounting.
        self.emitted = 0
        self._tail: deque[dict] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        #: Events staged for the writer (file mode only).
        self._pending: deque[dict] = deque(maxlen=capacity)
        self._drained = threading.Condition(self._lock)
        self._wake = threading.Event()
        self._writer: threading.Thread | None = None
        self._closed = False
        self._stopping = False
        if path is not None:
            self._writer = threading.Thread(
                target=self._drain, name="request-log-writer", daemon=True
            )
            self._writer.start()

    # -- hot path -------------------------------------------------------------------

    def emit(self, event: dict) -> bool:
        """Record *event*; returns False when a staged event was dropped.

        Never blocks: one lock acquisition, two ring appends.  The
        writer thread picks the event up on its next tick.
        """
        with self._lock:
            if self._closed:
                return False
            self.emitted += 1
            self._tail.append(event)
            if self._writer is None:
                return True
            if len(self._pending) == self.capacity:
                # deque(maxlen) silently evicts the oldest — count it.
                self.dropped += 1
                self._pending.append(event)
                return False
            self._pending.append(event)
            return True

    # -- reading --------------------------------------------------------------------

    def tail(self, n: int | None = None) -> list[dict]:
        """The most recent *n* events (all retained when *n* is None)."""
        with self._lock:
            events = list(self._tail)
        if n is not None:
            events = events[-n:]
        return events

    def stats(self) -> dict:
        with self._lock:
            return {
                "emitted": self.emitted,
                "dropped": self.dropped,
                "retained": len(self._tail),
                "capacity": self.capacity,
                "path": self.path,
            }

    # -- writer thread --------------------------------------------------------------

    def _drain(self) -> None:
        assert self.path is not None
        with open(self.path, "a", encoding="utf-8") as handle:
            while True:
                self._wake.wait(self.flush_interval)
                self._wake.clear()
                with self._lock:
                    batch = list(self._pending)
                    self._pending.clear()
                    stopping = self._stopping
                if batch:
                    handle.write(
                        "".join(
                            json.dumps(event, default=str) + "\n"
                            for event in batch
                        )
                    )
                    handle.flush()
                with self._drained:
                    self._drained.notify_all()
                if stopping:
                    return

    def flush(self, timeout: float = 5.0) -> None:
        """Block (up to *timeout*) until staged events reached the file."""
        if self._writer is None:
            return
        self._wake.set()
        with self._drained:
            self._drained.wait_for(
                lambda: not self._pending or self._stopping and self._closed,
                timeout=timeout,
            )

    def close(self, timeout: float = 5.0) -> None:
        """Stop the writer thread (idempotent); the tail stays readable.

        Staged events are drained to the file before the writer exits.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._stopping = True
        if self._writer is not None:
            self._wake.set()
            self._writer.join(timeout)

    def __enter__(self) -> "RequestLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
