"""Per-shard pools of read-only WAL connections.

A :class:`ConnectionPool` owns up to ``size`` read-only
:class:`~repro.relational.database.Database` connections to one shard
file, each paired with its own scheme instance (translators and
reconstruction need one).  Connections are built lazily, handed out
LIFO (the most recently used connection has the warmest page cache),
health-checked on acquire, and shared across threads — every pooled
database is opened with ``check_same_thread=False`` and is used by at
most one thread at a time between ``acquire`` and ``release``.

All pooled connections of a shard share one thread-safe
:class:`~repro.relational.plancache.PlanCache`, so the first query to
translate an XPath warms it for the whole pool.

Exhaustion policy: ``acquire`` blocks up to ``acquire_timeout`` seconds
for a connection, then raises :class:`~repro.errors.Overloaded` — the
caller (the scatter-gather executor) treats that exactly like any other
shed load.

Two invalidation channels exist for writable shards:

* **Plan epoch** — the pool carries a shard-local epoch counter; a
  write on this shard bumps it (:meth:`ConnectionPool.bump_epoch`) and
  ``acquire`` stamps it onto the handed-out scheme's ``plan_epoch``, so
  cached plans from before the write become unreachable *on this shard
  only* — other shards' pools keep serving their cached plans.
* **Generation** — :meth:`ConnectionPool.recycle` retires every pooled
  connection (idle now, checked-out ones at release) after the shard
  file is atomically replaced underneath the pool (replica snapshot
  ship); new acquires build connections against the new file.

**Result cache.**  Beside the plan cache every pool carries a
:class:`ResultCache`: one finished :class:`Run` — ``(global_doc_id,
pre)`` rows *and* their wire fragment — per ``(document, xpath)``, so a
read that repeats one seen since the shard's last write — one document
or many — executes no SQL, acquires no connection and encodes nothing.
Its invalidation is a third channel, the **data version**:
:meth:`ConnectionPool.bump_data_version` (every committed write on the
shard; :meth:`ConnectionPool.recycle`) drops the whole cache and makes
rows read under the previous version unpublishable.

A fresh connection failing its health check normally means the shard is
down; with a ``retry`` policy the pool backs off and rebuilds up to
``max_attempts`` times before reporting shard-down, riding out
transient stalls.

Pool state is observable through gauges/counters in the owning
:class:`~repro.obs.metrics.MetricsRegistry`, namespaced by pool name:
``pool.<name>.in_use``, ``pool.<name>.open`` (gauges),
``pool.<name>.acquires``, ``pool.<name>.releases``,
``pool.<name>.timeouts``, ``pool.<name>.health_failures``,
``pool.<name>.health_retries``, ``pool.<name>.recycled`` (counters),
and the result cache's ``pool.<name>.result_cache.hits`` / ``misses`` /
``evictions`` / ``invalidations`` (counters) and ``rows`` (gauge).
"""

from __future__ import annotations

import queue
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from functools import partial
from collections.abc import Callable
from typing import NamedTuple

from repro.core.store import open_scheme
from repro.errors import Overloaded, StorageError, XmlRelError
from repro.obs.metrics import MetricsRegistry
from repro.relational.database import Database
from repro.relational.plancache import PlanCache
from repro.relational.retry import RetryPolicy


#: Row units one pool's :class:`ResultCache` may hold.  A row is a
#: 2-tuple of ints plus its share of the wire fragment, about 110 bytes;
#: an entry costs about 330–400 more before its first row (key tuple,
#: its xpath ``str``, the ``Run``, the fragment object, the dict slot),
#: which :func:`_cost` charges as 4 rows — so a full cache is about
#: 3.5 MB per pool, and under 4 MB, whether it holds 32 large answers
#: or 8 192 empty ones.
RESULT_CACHE_ROWS = 32_768


class Run(NamedTuple):
    """One document's answer to one XPath: its ``(global_doc_id, pre)``
    rows in document order and the same rows as the wire carries them
    (:func:`repro.serve.protocol.encode_rows`) — what the result cache
    holds and the executor merges."""

    doc_id: int
    rows: tuple
    fragment: bytes


def _cost(run: Run) -> int:
    """What one cached result charges against the row budget: its rows
    plus the entry itself, which weighs about 4 rows however few it
    holds (value-literal reads make distinct empty answers the common
    entry, so a per-row charge alone would not bound bytes)."""
    return len(run.rows) + 4


class ResultCache:
    """Finished per-document query results of one shard file.

    Maps ``(global_doc_id, local_doc_id, xpath)`` to that document's
    :class:`Run` (rows and wire fragment in one value, so neither can
    outlive the other), LRU-bounded by what it holds (:func:`_cost`:
    rows, plus a fixed charge per entry — the ``rows`` gauge and stat
    report that sum), not by an entry count.
    The global id is part of the key because local ids are sqlite
    rowids and are reused after a delete: a reader still holding
    pre-delete targets must never publish rows another document's
    readers can hit.

    Invalidation is by **version**.  A reader takes the version together
    with its lookups (:meth:`lookup`, one lock hold), runs its
    statements, and offers the rows back under that version;
    :meth:`put` refuses a version that is no longer current.  A write
    commits, then calls :meth:`invalidate`, then returns: a statement
    that ran before the commit can only ever publish under a dead
    version, and a reader that starts after the write returned finds
    only rows read after the commit.
    """

    def __init__(self, metrics: MetricsRegistry, prefix: str) -> None:
        # Lock class "pool" (repro.analysis.concurrency.LOCK_SITES):
        # dict bookkeeping and the rows gauge (class "metrics", ranked
        # inside) only, nothing blocking.
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, Run] = OrderedDict()
        self._version = 0
        self._rows = 0
        self._hits = metrics.counter(f"{prefix}.hits")
        self._misses = metrics.counter(f"{prefix}.misses")
        self._evictions = metrics.counter(f"{prefix}.evictions")
        self._invalidations = metrics.counter(f"{prefix}.invalidations")
        self._rows_gauge = metrics.gauge(f"{prefix}.rows")

    def lookup(
        self, docs: list[tuple[int, int]], xpath: str
    ) -> tuple[int, list[Run | None]]:
        """``(version, found)``: the current data version and, per
        ``(global, local)`` pair of *docs*, its cached run or None."""
        found: list[Run | None] = []
        with self._lock:
            entries = self._entries
            for global_doc, local_doc in docs:
                key = (global_doc, local_doc, xpath)
                run = entries.get(key)
                if run is not None:
                    entries.move_to_end(key)
                found.append(run)
            version = self._version
        hits = len(found) - found.count(None)
        if hits:
            self._hits.inc(hits)
        if hits < len(found):
            self._misses.inc(len(found) - hits)
        return version, found

    def put(
        self, version: int, doc: tuple[int, int], xpath: str, run: Run
    ) -> None:
        """Publish *run*, read under *version*, for one document —
        unless the version is dead or the result alone exceeds the
        budget."""
        cost = _cost(run)
        if cost > RESULT_CACHE_ROWS:
            return
        evicted = 0
        with self._lock:
            if version != self._version:
                return
            entries = self._entries
            key = (doc[0], doc[1], xpath)
            previous = entries.pop(key, None)
            if previous is not None:
                self._rows -= _cost(previous)
            entries[key] = run
            self._rows += cost
            while self._rows > RESULT_CACHE_ROWS:
                _, coldest = entries.popitem(last=False)
                self._rows -= _cost(coldest)
                evicted += 1
            self._rows_gauge.set(self._rows)
        if evicted:
            self._evictions.inc(evicted)

    def invalidate(self) -> int:
        """Drop everything and start the next version (returned)."""
        with self._lock:
            self._version += 1
            version = self._version
            self._entries.clear()
            self._rows = 0
            self._rows_gauge.set(0)
        self._invalidations.inc()
        return version

    def stats(self) -> dict[str, int]:
        """Cumulative counters plus what is held now."""
        with self._lock:
            entries, rows, version = (
                len(self._entries), self._rows, self._version
            )
        return {
            "hits": self._hits.value,
            "misses": self._misses.value,
            "evictions": self._evictions.value,
            "invalidations": self._invalidations.value,
            "rows": rows,
            "entries": entries,
            "version": version,
            "capacity_rows": RESULT_CACHE_ROWS,
        }


class ReadSession:
    """One pooled read-only connection plus its scheme instance.

    Handed out by :meth:`ConnectionPool.acquire`; use ``session.scheme``
    for queries (``query_pres``/``query_nodes``/``reconstruct``) and
    ``session.db`` for raw reads.  Must be given back with
    :meth:`ConnectionPool.release` (or use
    :meth:`ConnectionPool.connection`).
    """

    __slots__ = ("db", "scheme", "fresh", "generation")

    def __init__(self, db: Database, scheme, generation: int = 0) -> None:
        self.db = db
        self.scheme = scheme
        #: True only between construction and first release — a fresh
        #: connection that fails its health check is a hard error (the
        #: shard is down), not a stale-connection retry.
        self.fresh = True
        #: The pool generation this connection was built under; a
        #: :meth:`ConnectionPool.recycle` bumps the pool's generation so
        #: stale connections are discarded instead of re-pooled.
        self.generation = generation

    def close(self) -> None:
        self.db.close()


class ConnectionPool:
    """A bounded pool of read-only connections to one shard file."""

    def __init__(
        self,
        path: str,
        scheme: str,
        size: int = 4,
        acquire_timeout: float = 1.0,
        name: str = "shard",
        metrics: MetricsRegistry | None = None,
        retry: RetryPolicy | None = None,
        factory: Callable = Database,
        scheme_kwargs: dict | None = None,
        profile: str = "durable",
        **db_options,
    ) -> None:
        """*factory*, *scheme_kwargs*, *profile* and ``db_options``
        (``lint``, ``tracer``) build each pooled connection through
        :func:`~repro.core.store.open_scheme`; tests swap in
        fault-injecting factories (see
        :meth:`repro.reliability.faults.ShardFaultPolicy.factory`)."""
        if size < 1:
            raise StorageError("pool size must be >= 1")
        self.path = path
        self.scheme_name = scheme
        self.size = size
        self.acquire_timeout = acquire_timeout
        self.name = name
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Backoff for fresh-connection health failures (None: report
        #: shard-down on the first one, the pre-retry behaviour).
        self.retry = retry
        #: One warm translation cache for the whole pool.
        self.plan_cache = PlanCache()
        #: Finished runs per (document, xpath); see :class:`ResultCache`.
        self.result_cache = ResultCache(
            self.metrics, f"pool.{name}.result_cache"
        )
        self._idle: queue.LifoQueue[ReadSession] = queue.LifoQueue()
        self._lock = threading.Lock()
        self._created = 0
        self._closed = False
        self._epoch = 0
        self._generation = 0
        self._open = partial(
            open_scheme, path, scheme, factory, scheme_kwargs,
            profile=profile, read_only=True, check_same_thread=False,
            plan_cache=self.plan_cache, **db_options,
        )

    # -- metrics helpers ----------------------------------------------------------

    def _counter(self, suffix: str):
        return self.metrics.counter(f"pool.{self.name}.{suffix}")

    def _gauge(self, suffix: str):
        return self.metrics.gauge(f"pool.{self.name}.{suffix}")

    # -- connection lifecycle -----------------------------------------------------

    def _build(self) -> ReadSession:
        scheme = self._open()
        self._counter("created").inc()
        with self._lock:
            generation = self._generation
        return ReadSession(scheme.db, scheme, generation)

    def _healthy(self, session: ReadSession) -> bool:
        """One cheap round trip proving the connection still answers
        (:meth:`~repro.relational.database.Database.ping`: untraced and
        unmetered, so per-acquire checks bury no query spans)."""
        return session.db.ping()

    def _stale(self, session: ReadSession) -> bool:
        with self._lock:
            return session.generation != self._generation

    def _discard(self, session: ReadSession) -> None:
        with self._lock:
            self._created -= 1
            self._gauge("open").set(self._created)
        try:
            session.close()
        except XmlRelError:
            pass

    def _drain_idle(self, recycled: bool = False) -> None:
        """Discard every currently idle session."""
        while True:
            try:
                session = self._idle.get_nowait()
            except queue.Empty:
                break
            if recycled:
                self._counter("recycled").inc()
            self._discard(session)

    # -- acquire / release --------------------------------------------------------

    def acquire(self, timeout: float | None = None) -> ReadSession:
        """Check out a healthy read session, waiting at most *timeout*
        seconds (default: the pool's ``acquire_timeout``).

        Raises :class:`~repro.errors.Overloaded` when every connection
        stays busy past the timeout, and :class:`StorageError` when the
        shard itself is unhealthy (even freshly built connections fail
        their health check, through the retry budget if one is set).
        """
        if self._closed:
            raise StorageError(f"pool {self.name!r} is closed")
        budget = self.acquire_timeout if timeout is None else timeout
        deadline = time.monotonic() + max(budget, 0.0)
        self._counter("acquires").inc()
        fresh_failures = 0
        while True:
            session = self._checkout(deadline)
            if self._stale(session):
                # Built before the last recycle() — the shard file was
                # replaced underneath it; never hand it out again.
                self._counter("recycled").inc()
                self._discard(session)
                continue
            if self._healthy(session):
                session.fresh = False
                with self._lock:
                    session.scheme.plan_epoch = self._epoch
                self._gauge("in_use").add(1)
                return session
            was_fresh = session.fresh
            self._counter("health_failures").inc()
            self._discard(session)
            if was_fresh:
                # A brand-new connection failing means the shard itself
                # is unhealthy, not that this connection went stale.
                # With a retry policy, back off and rebuild — a
                # transiently-stalled shard (mid-recovery, mid-ship)
                # answers on a later attempt; without one, or once the
                # attempts run out, report the shard down.
                fresh_failures += 1
                attempts = (
                    self.retry.max_attempts if self.retry is not None else 1
                )
                if fresh_failures < attempts:
                    self._counter("health_retries").inc()
                    self.retry.backoff(fresh_failures)
                    continue
                raise StorageError(
                    f"shard pool {self.name!r}: fresh connection failed "
                    f"its health check ({fresh_failures} attempt(s); "
                    f"shard down?)"
                )

    def _checkout(self, deadline: float) -> ReadSession:
        """An idle session, a newly built one, or a timed wait."""
        try:
            session = self._idle.get_nowait()
            session.fresh = False
            return session
        except queue.Empty:
            pass
        with self._lock:
            can_build = self._created < self.size
            if can_build:
                self._created += 1
                self._gauge("open").set(self._created)
        if can_build:
            try:
                return self._build()
            except BaseException:
                with self._lock:
                    self._created -= 1
                    self._gauge("open").set(self._created)
                raise
        remaining = deadline - time.monotonic()
        try:
            if remaining <= 0:
                session = self._idle.get_nowait()
            else:
                session = self._idle.get(timeout=remaining)
            session.fresh = False
            return session
        except queue.Empty:
            self._counter("timeouts").inc()
            raise Overloaded(
                f"shard pool {self.name!r}: no connection available "
                f"within the acquire timeout "
                f"({self.size} connections, all busy)",
                in_flight=self.size,
                limit=self.size,
            ) from None

    def release(self, session: ReadSession) -> None:
        """Return a session to the pool (closes it if the pool closed,
        or was recycled, while it was out)."""
        self._gauge("in_use").add(-1)
        self._counter("releases").inc()
        if self._closed or self._stale(session):
            self._discard(session)
            return
        self._idle.put(session)
        if self._closed:
            # close() may have set the flag and drained the queue
            # between our check above and the put — drain again so no
            # connection outlives the pool.  (Found by the concurrency
            # audit: the same window for recycle() is benign, because
            # acquire() re-checks staleness at checkout.)
            self._drain_idle()

    @contextmanager
    def connection(self, timeout: float | None = None):
        """``with pool.connection() as session:`` acquire/release pair."""
        session = self.acquire(timeout)
        try:
            yield session
        finally:
            self.release(session)

    # -- invalidation --------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """The shard-local plan epoch stamped onto acquired schemes."""
        with self._lock:
            return self._epoch

    def bump_epoch(self) -> int:
        """Invalidate cached plans for *this shard only*: plans cached
        under earlier epochs become unreachable (the cache key includes
        ``plan_epoch``) without touching other shards' caches."""
        with self._lock:
            self._epoch += 1
            return self._epoch

    @property
    def generation(self) -> int:
        with self._lock:
            return self._generation

    def bump_data_version(self) -> int:
        """The shard file's committed contents changed: drop every
        cached result and refuse rows still in flight from before."""
        return self.result_cache.invalidate()

    def recycle(self) -> None:
        """Retire every pooled connection: idle ones now, checked-out
        ones when released.  Called after the shard file was atomically
        replaced (replica snapshot ship) so no connection keeps reading
        the unlinked old file.

        The generation moves *before* the data version: a reader takes
        its version before it acquires, so one that still got an
        old-generation connection took the old version too.
        """
        with self._lock:
            self._generation += 1
        self.bump_data_version()
        self._drain_idle(recycled=True)

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Close every idle connection and refuse further acquires.

        Sessions currently checked out are closed at their release.
        """
        self._closed = True
        self._drain_idle()

    def __enter__(self) -> "ConnectionPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def stats(self) -> dict[str, int]:
        """Point-in-time pool accounting (plus plan- and result-cache
        stats)."""
        with self._lock:
            open_count = self._created
            epoch = self._epoch
            generation = self._generation
        return {
            "open": open_count,
            "idle": self._idle.qsize(),
            "size": self.size,
            "epoch": epoch,
            "generation": generation,
            "plan_cache": self.plan_cache.stats(),
            "result_cache": self.result_cache.stats(),
        }
