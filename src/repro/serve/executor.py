"""Scatter-gather query execution over sharded stores.

A :class:`QueryExecutor` owns a thread pool and one
:class:`~repro.serve.pool.ConnectionPool` per shard.  A query arrives
with its *targets* — ``{shard: [(global_doc_id, local_doc_id), ...]}``,
computed by the shard map — and either

* **prunes to one shard** (doc-scoped query: exactly one target shard),
  running inline on the calling thread with no fan-out overhead, or
* **scatters** one task per shard onto the worker pool and **gathers**
  the partial answers, merging them into ``(doc_id, pre)`` pairs sorted
  by global doc id then document order — the natural order key, since
  ``pre`` *is* document order within one document.

Admission control and deadlines:

* at most ``max_in_flight`` queries run at once; the next one is shed
  immediately with :class:`~repro.errors.Overloaded` (no queueing — a
  loaded server answering late is worse than one answering "retry"),
* a per-query deadline (seconds) bounds the whole scatter-gather;
  missing it raises :class:`~repro.errors.DeadlineExceeded`.  Work still
  running on other shards is abandoned (its connections return to the
  pools when it finishes) — a deadline miss never blocks the caller
  further.

Degraded modes (``on_shard_error``): ``"fail"`` raises a typed
:class:`~repro.errors.ShardError` on the first shard failure;
``"partial"`` returns the surviving shards' rows with
``ScatterResult.partial`` set and the failures listed — the caller
decides whether a partial answer is better than none.  Deadline misses
always raise: a partial answer is a *complete* answer from fewer
shards, never a timing accident.

Result cache: each pool keeps finished per-document rows
(:class:`~repro.serve.pool.ResultCache`), consulted in the one place
SQL runs (``_query_on_pool``) by every request that targets more than
one document.  A shard whose targeted documents are all cached answers
without acquiring a connection; every committed write on a shard, and
every replica re-ship, drops that pool's cache.  A request for a single
document is one statement on one connection and executes it.

Replica routing (``read_from="replica"``): when a shard has shipped
read replicas (``replica_pools``), its read lands on one of them
(round-robin) instead of the primary, and the answer carries the
replica's *staleness bound* — how many committed writes it is behind
and how old its snapshot is (from
:class:`~repro.relational.shardmap.ShardState`).  A replica that is
down or overloaded falls back to the primary
(``serve.replica_fallbacks`` counts these), so replica reads degrade to
primary reads, never to failures the primary could have answered.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import (
    ALL_COMPLETED,
    FIRST_EXCEPTION,
    ThreadPoolExecutor,
    wait,
)
from contextlib import contextmanager
from dataclasses import dataclass

from repro.errors import (
    DeadlineExceeded,
    Overloaded,
    ServingError,
    ShardError,
    StorageError,
    XmlRelError,
)
from repro.obs.events import RequestLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, RequestContext, Tracer
from repro.serve.pool import ConnectionPool, ReadSession

#: Request outcomes used as the dimension on ``serve.query_seconds.*``
#: histograms, ``serve.query.outcome.*`` counters, and wide events.
QUERY_OUTCOMES = (
    "ok", "partial", "overloaded", "deadline_exceeded", "shard_error",
    "error",
)

#: Degraded-mode policies for shard failures during scatter-gather.
SHARD_ERROR_MODES = ("fail", "partial")

#: Where reads land by default: the shard primary, or its replicas
#: (with primary fallback).
READ_FROM_MODES = ("primary", "replica")


@dataclass(frozen=True)
class _ShardAnswer:
    """One shard's rows plus where they were read from."""

    rows: list
    #: ``"hit"`` (no SQL ran), ``"miss"``, or ``"partial"`` — what the
    #: answering pool's result cache did for this shard's documents;
    #: None when the request did not go through it (a single document).
    result_cache: str | None = None
    replica: int | None = None
    lag_writes: int | None = None
    age_seconds: float | None = None


@dataclass(frozen=True)
class ScatterResult:
    """The merged answer of one scatter-gather (or doc-scoped) query.

    ``rows`` are ``(doc_id, pre)`` pairs — global document id and the
    node's pre-order id — sorted by ``(doc_id, pre)``, i.e. by document
    then document order.  ``partial`` is True when at least one shard
    failed under the ``"partial"`` degraded mode; ``failed_shards``
    then carries ``(shard, error message)`` pairs.

    ``replica_reads`` counts shards answered from a read replica; when
    any were, ``max_replica_lag_writes`` / ``max_replica_age_seconds``
    bound how stale the answer can be — the worst replica's committed
    writes behind its primary and snapshot age at ship time.
    """

    rows: tuple
    shards_queried: int
    elapsed_seconds: float
    partial: bool = False
    failed_shards: tuple = ()
    replica_reads: int = 0
    max_replica_lag_writes: int | None = None
    max_replica_age_seconds: float | None = None

    @property
    def pres(self) -> list[int]:
        """Just the node ids (useful for doc-scoped queries)."""
        return [pre for _, pre in self.rows]

    def doc_ids(self) -> list[int]:
        """Distinct matching document ids, in order."""
        return list(dict.fromkeys(doc for doc, _ in self.rows))


def _spans_documents(targets: dict[int, list[tuple[int, int]]]) -> bool:
    """Whether a request's reads go through the pools' result caches:
    it targets more than one document."""
    return sum(len(docs) for docs in targets.values()) > 1


class QueryExecutor:
    """Thread-pool scatter-gather over per-shard connection pools."""

    def __init__(
        self,
        pools: dict[int, ConnectionPool],
        max_workers: int | None = None,
        max_in_flight: int = 32,
        default_deadline: float | None = None,
        on_shard_error: str = "fail",
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        replica_pools: dict[int, list[ConnectionPool]] | None = None,
        read_from: str = "primary",
        shard_state=None,
        request_log: RequestLog | None = None,
    ) -> None:
        if not pools:
            raise StorageError("executor needs at least one shard pool")
        if max_in_flight < 1:
            raise StorageError("max_in_flight must be >= 1")
        if on_shard_error not in SHARD_ERROR_MODES:
            raise StorageError(
                f"unknown shard-error mode {on_shard_error!r}; available: "
                + ", ".join(SHARD_ERROR_MODES)
            )
        if read_from not in READ_FROM_MODES:
            raise StorageError(
                f"unknown read-from mode {read_from!r}; available: "
                + ", ".join(READ_FROM_MODES)
            )
        self.pools = dict(pools)
        #: Per-shard replica pools; the owning store attaches entries as
        #: replica snapshots ship, so routing sees them appear live.
        self.replica_pools = dict(replica_pools or {})
        self.read_from = read_from
        #: :class:`~repro.relational.shardmap.ShardState` (or None) —
        #: the staleness bookkeeping replica-served answers report from.
        self.shard_state = shard_state
        self._replica_rr: dict[int, int] = {}
        self._replica_lock = threading.Lock()
        self.max_in_flight = max_in_flight
        self.default_deadline = default_deadline
        self.on_shard_error = on_shard_error
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Lazy caches for instruments with formatted names — the warm
        # query path must not rebuild "serve.shardN.query_seconds"
        # strings on every request.  Lazy (not eager) so an untouched
        # shard or outcome never materializes an empty instrument.
        self._shard_seconds: dict = {}
        self._outcome_instruments: dict = {}
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Optional wide-event sink: one structured record per query.
        self.request_log = request_log
        self._gate = threading.Semaphore(max_in_flight)
        self._threads = ThreadPoolExecutor(
            max_workers=max_workers or max(4, len(self.pools)),
            thread_name_prefix="xmlrel-serve",
        )
        self._closed = False

    # -- admission control --------------------------------------------------------

    @contextmanager
    def _admitted(self):
        """One slot of the max-in-flight gate, or immediate shed."""
        if not self._gate.acquire(blocking=False):
            self.metrics.counter("serve.overloaded").inc()
            raise Overloaded(
                f"serving layer at max in-flight capacity "
                f"({self.max_in_flight})",
                in_flight=self.max_in_flight,
                limit=self.max_in_flight,
            )
        self.metrics.gauge("serve.in_flight").add(1)
        try:
            yield
        finally:
            self.metrics.gauge("serve.in_flight").add(-1)
            self._gate.release()

    def _shard_histogram(self, shard: int):
        """``serve.shard{N}.query_seconds``, resolved once per shard."""
        histogram = self._shard_seconds.get(shard)
        if histogram is None:
            histogram = self._shard_seconds[shard] = self.metrics.histogram(
                f"serve.shard{shard}.query_seconds"
            )
        return histogram

    def _outcome_pair(self, outcome: str):
        """The ``(histogram, counter)`` pair for one query outcome."""
        pair = self._outcome_instruments.get(outcome)
        if pair is None:
            pair = self._outcome_instruments[outcome] = (
                self.metrics.histogram(f"serve.query_seconds.{outcome}"),
                self.metrics.counter(f"serve.query.outcome.{outcome}"),
            )
        return pair

    # -- per-shard work -----------------------------------------------------------

    def _pick_replica(self, shard: int) -> tuple[ConnectionPool, int] | None:
        """The next replica pool for *shard*, round-robin, if any."""
        replicas = self.replica_pools.get(shard)
        if not replicas:
            return None
        with self._replica_lock:
            index = self._replica_rr.get(shard, 0) % len(replicas)
            self._replica_rr[shard] = index + 1
        return replicas[index], index

    def _query_shard(
        self,
        shard: int,
        docs: list[tuple[int, int]],
        xpath: str,
        deadline_at: float | None,
        deadline_budget: float | None,
        read_from: str,
        ctx: RequestContext | None = None,
        breakdown: dict | None = None,
        cached: bool = False,
    ) -> _ShardAnswer:
        """Run *xpath* over every targeted document of one shard.

        Routes to a read replica when asked (and one exists), falling
        back to the primary if the replica is down or overloaded.

        *ctx* is the request's trace context (adopted here, so this
        shard's spans nest under the request root even on a pool
        thread); *breakdown* — when the wide-event log is on — collects
        this shard's entry of the per-shard fan-out record (latency,
        replica choice, plan- and result-cache warmth, lint verdict,
        outcome); *cached* says whether the read goes through the
        answering pool's result cache.
        """
        if not docs:
            return _ShardAnswer(rows=[])
        with self.tracer.adopt(ctx):
            with self.tracer.span(
                "serve.shard", shard=shard, docs=len(docs)
            ) as span:
                return self._query_shard_traced(
                    shard, docs, xpath, deadline_at, deadline_budget,
                    read_from, span, breakdown, cached,
                )

    def _query_shard_traced(
        self,
        shard: int,
        docs: list[tuple[int, int]],
        xpath: str,
        deadline_at: float | None,
        deadline_budget: float | None,
        read_from: str,
        span,
        breakdown: dict | None,
        cached: bool,
    ) -> _ShardAnswer:
        started = time.perf_counter()
        info: dict | None = None
        if breakdown is not None:
            info = {"shard": shard, "docs": len(docs), "read_from": "primary"}
            breakdown[shard] = info
        try:
            answer = self._route_shard_read(
                shard, docs, xpath, deadline_at, deadline_budget,
                read_from, info, cached,
            )
        except XmlRelError as error:
            elapsed = time.perf_counter() - started
            self._shard_histogram(shard).observe(elapsed)
            if info is not None:
                info["elapsed_seconds"] = elapsed
                info["outcome"] = "error"
                info["error"] = f"{type(error).__name__}: {error}"
            raise
        elapsed = time.perf_counter() - started
        self._shard_histogram(shard).observe(elapsed)
        if span:
            span.set(rows=len(answer.rows))
            if answer.replica is not None:
                span.set(replica=answer.replica)
        if info is not None:
            info["elapsed_seconds"] = elapsed
            info["outcome"] = "ok"
            info["rows"] = len(answer.rows)
            if answer.result_cache is not None:
                info["result_cache"] = answer.result_cache
            if answer.replica is not None:
                info["read_from"] = "replica"
                info["replica"] = answer.replica
                info["replica_lag_writes"] = answer.lag_writes
                info["replica_age_seconds"] = answer.age_seconds
            pool = self.pools[shard]
            plans = pool.plan_cache.peek(
                (pool.scheme_name, pool.epoch, xpath)
            )
            info["plan_cached"] = plans is not None
            info["lint"] = self._lint_verdict(pool, plans)
        return answer

    def _route_shard_read(
        self,
        shard: int,
        docs: list[tuple[int, int]],
        xpath: str,
        deadline_at: float | None,
        deadline_budget: float | None,
        read_from: str,
        info: dict | None,
        cached: bool,
    ) -> _ShardAnswer:
        """Replica-or-primary routing (the pre-telemetry body of
        ``_query_shard``)."""
        picked = (
            self._pick_replica(shard) if read_from == "replica" else None
        )
        if picked is not None:
            pool, replica = picked
            try:
                with self.tracer.span(
                    "serve.replica_read", replica=replica
                ) as span:
                    rows, served = self._query_on_pool(
                        pool, docs, xpath, deadline_at, deadline_budget,
                        cached,
                    )
                    if span and served is not None:
                        span.set(result_cache=served)
            except (Overloaded, StorageError):
                # The replica could not answer; its primary still can.
                self.metrics.counter("serve.replica_fallbacks").inc()
                if info is not None:
                    info["replica_fallback"] = True
            else:
                self.metrics.counter("serve.replica_reads").inc()
                lag = age = None
                if self.shard_state is not None:
                    staleness = self.shard_state.staleness(shard, replica)
                    if staleness is not None:
                        lag, age = staleness
                return _ShardAnswer(
                    rows=rows,
                    result_cache=served,
                    replica=replica,
                    lag_writes=lag,
                    age_seconds=age,
                )
        with self.tracer.span("serve.execute", shard=shard) as span:
            rows, served = self._query_on_pool(
                self.pools[shard], docs, xpath, deadline_at, deadline_budget,
                cached,
            )
            if span and served is not None:
                span.set(result_cache=served)
        return _ShardAnswer(rows=rows, result_cache=served)

    @staticmethod
    def _lint_verdict(pool: ConnectionPool, plans) -> str:
        """The plan linter's word on this query's cached plans:
        ``off`` (linting disabled on the pool), ``unknown`` (no cached
        plan to inspect), ``clean``, ``warn``, or ``error``."""
        if pool.lint == "off":
            return "off"
        if plans is None:
            return "unknown"
        diagnostics = [d for plan in plans for d in plan.diagnostics]
        if any(d.is_error for d in diagnostics):
            return "error"
        if diagnostics:
            return "warn"
        return "clean"

    def _query_on_pool(
        self,
        pool: ConnectionPool,
        docs: list[tuple[int, int]],
        xpath: str,
        deadline_at: float | None,
        deadline_budget: float | None,
        cached: bool,
    ) -> tuple[list[tuple[int, int]], str | None]:
        """Returns ``(global_doc_id, pre)`` pairs plus what the pool's
        result cache did: ``"hit"`` (every document cached — no
        connection acquired, no SQL), ``"miss"`` or ``"partial"`` — or
        None when *cached* is false and the read went past it (nothing
        looked up, nothing published).

        The data version is taken with the lookups, before the acquire
        and before any statement runs, so rows read across a write or a
        recycle are refused by ``put``.  Checks the deadline between
        documents so a slow shard stops burning its pool slot once the
        query has already missed."""
        timeout = pool.acquire_timeout
        if deadline_at is not None:
            remaining = deadline_at - time.monotonic()
            if remaining <= 0:
                raise self._deadline_error(deadline_budget, deadline_at)
            timeout = min(timeout, remaining)
        cache = pool.result_cache if cached else None
        if cache is None:
            version, found = 0, [None] * len(docs)
        else:
            version, found = cache.lookup(docs, xpath)
        rows: list[tuple[int, int]] = []
        misses = found.count(None)
        if not misses:
            for held in found:
                rows.extend(held)
            return rows, "hit"
        session = pool.acquire(timeout=timeout)
        try:
            for doc, held in zip(docs, found):
                if held is None:
                    if (
                        deadline_at is not None
                        and time.monotonic() > deadline_at
                    ):
                        raise self._deadline_error(
                            deadline_budget, deadline_at
                        )
                    global_doc, local_doc = doc
                    held = tuple(
                        (global_doc, pre)
                        for pre in session.scheme.query_pres(
                            local_doc, xpath
                        )
                    )
                    if cache is not None:
                        cache.put(version, doc, xpath, held)
                rows.extend(held)
            if cache is None:
                return rows, None
            return rows, "miss" if misses == len(docs) else "partial"
        finally:
            pool.release(session)

    def _deadline_error(
        self, budget: float | None, deadline_at: float
    ) -> DeadlineExceeded:
        elapsed = (budget or 0.0) + (time.monotonic() - deadline_at)
        return DeadlineExceeded(
            f"query exceeded its {budget if budget is not None else 0.0:.3f}s "
            f"deadline",
            deadline_seconds=budget or 0.0,
            elapsed=elapsed,
        )

    # -- the public query paths ---------------------------------------------------

    def query(
        self,
        xpath: str,
        targets: dict[int, list[tuple[int, int]]],
        deadline: float | None = None,
        read_from: str | None = None,
        ctx: RequestContext | None = None,
    ) -> ScatterResult:
        """Execute *xpath* against *targets* and merge the answers.

        *targets* maps each shard to its ``(global_doc_id,
        local_doc_id)`` pairs; a single-shard target set is the pruned
        doc-scoped fast lane (no thread handoff), anything else
        scatters across the worker pool.  *read_from* overrides the
        executor default per query (``"primary"`` or ``"replica"``).
        *ctx* carries an upstream request's identity (e.g. the
        gateway's): the wide event and span tree reuse its request id
        instead of minting a fresh one.

        Every exit — success, Overloaded shed, deadline miss, shard
        failure — lands in ``serve.query_seconds`` (plus the
        outcome-dimensioned ``serve.query_seconds.<outcome>`` /
        ``serve.query.outcome.<outcome>`` series) and, when a
        :class:`~repro.obs.events.RequestLog` is attached, emits one
        wide event carrying the full per-shard breakdown.
        """
        if self._closed:
            raise StorageError("query executor is closed")
        route = self.read_from if read_from is None else read_from
        if route not in READ_FROM_MODES:
            raise StorageError(
                f"unknown read-from mode {route!r}; available: "
                + ", ".join(READ_FROM_MODES)
            )
        budget = self.default_deadline if deadline is None else deadline
        deadline_at = (
            None if budget is None else time.monotonic() + budget
        )
        started = time.perf_counter()
        breakdown: dict | None = (
            {} if self.request_log is not None else None
        )
        upstream_id = ctx.request_id if ctx is not None else None
        ctx = None
        result: ScatterResult | None = None
        outcome = "error"
        error_text: str | None = None
        try:
            with self._admitted():
                self.metrics.counter("serve.queries").inc()
                with self.tracer.span(
                    "serve.query", xpath=str(xpath), shards=len(targets)
                ) as root:
                    ctx = self.tracer.capture(request_id=upstream_id)
                    if root:
                        root.set(request_id=ctx.request_id)
                    if len(targets) <= 1:
                        self.metrics.counter(
                            "serve.doc_scoped_queries"
                        ).inc()
                        result = self._run_single(
                            xpath, targets, deadline_at, budget, started,
                            route, ctx, breakdown,
                        )
                    else:
                        self.metrics.counter("serve.scatter_queries").inc()
                        result = self._scatter(
                            xpath, targets, deadline_at, budget, started,
                            route, ctx, breakdown,
                        )
                    if root:
                        root.set(rows=len(result.rows))
            outcome = "partial" if result.partial else "ok"
            return result
        except Overloaded as error:
            outcome, error_text = "overloaded", str(error)
            raise
        except DeadlineExceeded as error:
            outcome, error_text = "deadline_exceeded", str(error)
            raise
        except ShardError as error:
            outcome, error_text = "shard_error", str(error)
            raise
        except BaseException as error:
            error_text = f"{type(error).__name__}: {error}"
            raise
        finally:
            self._finish_query(
                xpath=xpath,
                targets=targets,
                route=route,
                budget=budget,
                started=started,
                outcome=outcome,
                error_text=error_text,
                result=result,
                ctx=ctx,
                breakdown=breakdown,
            )

    def _finish_query(
        self,
        xpath,
        targets,
        route: str,
        budget: float | None,
        started: float,
        outcome: str,
        error_text: str | None,
        result: ScatterResult | None,
        ctx: RequestContext | None,
        breakdown: dict | None,
    ) -> None:
        """Latency + outcome accounting and the wide event, on every
        exit path of :meth:`query` (success and all raises alike)."""
        elapsed = (
            result.elapsed_seconds if result is not None
            else time.perf_counter() - started
        )
        self.metrics.histogram("serve.query_seconds").observe(elapsed)
        outcome_histogram, outcome_counter = self._outcome_pair(outcome)
        outcome_histogram.observe(elapsed)
        outcome_counter.inc()
        if self.request_log is None:
            return
        request_id = (
            ctx.request_id if ctx is not None
            else self.tracer.capture().request_id
        )
        event = {
            "event": "query",
            "request_id": request_id,
            "ts": time.time(),
            "xpath": str(xpath),
            "read_from": route,
            "shards": len(targets),
            "docs": sum(len(docs) for docs in targets.values()),
            "outcome": outcome,
            "elapsed_seconds": elapsed,
            "deadline_seconds": budget,
            "deadline_slack_seconds": (
                None if budget is None else budget - elapsed
            ),
        }
        if error_text is not None:
            event["error"] = error_text
        if result is not None:
            event["rows"] = len(result.rows)
            event["partial"] = result.partial
            if result.failed_shards:
                event["failed_shards"] = list(result.failed_shards)
            event["replica_reads"] = result.replica_reads
            if result.max_replica_lag_writes is not None:
                event["max_replica_lag_writes"] = (
                    result.max_replica_lag_writes
                )
            if result.max_replica_age_seconds is not None:
                event["max_replica_age_seconds"] = (
                    result.max_replica_age_seconds
                )
        if breakdown:
            event["per_shard"] = [
                breakdown[shard] for shard in sorted(breakdown)
            ]
        self.request_log.emit(event)

    @staticmethod
    def _merge(
        answers: list[_ShardAnswer],
        shards_queried: int,
        started: float,
        failures: list[tuple[int, str]],
    ) -> ScatterResult:
        """Fold per-shard answers into one sorted, staleness-bounded
        result."""
        rows: list[tuple[int, int]] = []
        replica_reads = 0
        max_lag: int | None = None
        max_age: float | None = None
        for answer in answers:
            rows.extend(answer.rows)
            if answer.replica is not None:
                replica_reads += 1
                if answer.lag_writes is not None:
                    max_lag = (
                        answer.lag_writes if max_lag is None
                        else max(max_lag, answer.lag_writes)
                    )
                if answer.age_seconds is not None:
                    max_age = (
                        answer.age_seconds if max_age is None
                        else max(max_age, answer.age_seconds)
                    )
        return ScatterResult(
            rows=tuple(sorted(rows)),
            shards_queried=shards_queried,
            elapsed_seconds=time.perf_counter() - started,
            partial=bool(failures),
            failed_shards=tuple(failures),
            replica_reads=replica_reads,
            max_replica_lag_writes=max_lag,
            max_replica_age_seconds=max_age,
        )

    def _run_single(
        self, xpath, targets, deadline_at, budget, started, read_from,
        ctx=None, breakdown=None,
    ) -> ScatterResult:
        """The pruned path: one shard, executed on the calling thread."""
        failures: list[tuple[int, str]] = []
        answers: list[_ShardAnswer] = []
        cached = _spans_documents(targets)
        for shard, docs in targets.items():  # 0 or 1 iterations
            try:
                answers.append(
                    self._query_shard(
                        shard, docs, xpath, deadline_at, budget,
                        read_from, ctx, breakdown, cached,
                    )
                )
            except DeadlineExceeded:
                self.metrics.counter("serve.deadline_exceeded").inc()
                raise
            except XmlRelError as error:
                self._note_shard_failure(shard, error, failures)
        with self.tracer.span("serve.merge", answers=len(answers)):
            return self._merge(answers, len(targets), started, failures)

    def _scatter(
        self, xpath, targets, deadline_at, budget, started, read_from,
        ctx=None, breakdown=None,
    ) -> ScatterResult:
        """Fan out one task per shard; gather, merge, and sort."""
        cached = _spans_documents(targets)
        futures = {
            self._threads.submit(
                self._query_shard,
                shard,
                docs,
                xpath,
                deadline_at,
                budget,
                read_from,
                ctx,
                breakdown,
                cached,
            ): shard
            for shard, docs in targets.items()
        }
        remaining = (
            None if deadline_at is None
            else max(0.0, deadline_at - time.monotonic())
        )
        # Fail-fast wakes on the first failure; partial mode must sit
        # out the full fan-out (a late shard is still a good shard).
        return_when = (
            FIRST_EXCEPTION if self.on_shard_error == "fail"
            else ALL_COMPLETED
        )
        done, not_done = wait(
            futures, timeout=remaining, return_when=return_when
        )
        if not_done:
            for future in not_done:
                future.cancel()  # abandon; running tasks self-abort
            failed = next(
                (f for f in done if f.exception() is not None), None
            )
            if failed is None:
                # Nothing failed — the fan-out simply missed the clock.
                self.metrics.counter("serve.deadline_exceeded").inc()
                raise self._deadline_error(budget, deadline_at or 0.0)
            error = failed.exception()
            if isinstance(error, DeadlineExceeded):
                self.metrics.counter("serve.deadline_exceeded").inc()
                raise error
            if isinstance(error, XmlRelError):
                self._note_shard_failure(futures[failed], error, [])
            raise error
        answers: list[_ShardAnswer] = []
        failures: list[tuple[int, str]] = []
        for future in futures:
            shard = futures[future]
            try:
                answers.append(future.result())
            except DeadlineExceeded:
                self.metrics.counter("serve.deadline_exceeded").inc()
                raise
            except XmlRelError as error:
                self._note_shard_failure(shard, error, failures)
        with self.tracer.span("serve.merge", answers=len(answers)):
            return self._merge(answers, len(targets), started, failures)

    def _note_shard_failure(
        self,
        shard: int,
        error: XmlRelError,
        failures: list[tuple[int, str]],
    ) -> None:
        """Record one shard's failure, or raise in fail-fast mode."""
        self.metrics.counter("serve.shard_failures").inc()
        if self.on_shard_error == "fail":
            if isinstance(error, ServingError):
                raise error
            raise ShardError(shard, error) from error
        failures.append((shard, str(error)))

    def stream(
        self,
        xpath: str,
        targets: dict[int, list[tuple[int, int]]],
        deadline: float | None = None,
        read_from: str | None = None,
        ctx: RequestContext | None = None,
    ) -> "ScatterStream":
        """Begin an *incremental* scatter: per-shard futures surfaced to
        the caller as they run, instead of one materialized
        :class:`ScatterResult`.

        Admission, deadlines, replica routing, tracing, and outcome
        accounting all match :meth:`query`; what changes is delivery —
        the caller (the network gateway) folds each shard's rows into
        its response the moment that shard completes.  *ctx* optionally
        parents the ``serve.query`` span under an outer request span.

        Caller contract: consume the handle's futures (collecting each
        through :meth:`ScatterStream.collect`), then call
        :meth:`ScatterStream.finish` exactly once — on success *and* on
        error paths — to release the admission slot and land the
        latency/outcome metrics and the wide event.
        """
        if self._closed:
            raise StorageError("query executor is closed")
        route = self.read_from if read_from is None else read_from
        if route not in READ_FROM_MODES:
            raise StorageError(
                f"unknown read-from mode {route!r}; available: "
                + ", ".join(READ_FROM_MODES)
            )
        budget = self.default_deadline if deadline is None else deadline
        deadline_at = (
            None if budget is None else time.monotonic() + budget
        )
        started = time.perf_counter()
        if not self._gate.acquire(blocking=False):
            self.metrics.counter("serve.overloaded").inc()
            error = Overloaded(
                f"serving layer at max in-flight capacity "
                f"({self.max_in_flight})",
                in_flight=self.max_in_flight,
                limit=self.max_in_flight,
            )
            self._finish_query(
                xpath=xpath, targets=targets, route=route, budget=budget,
                started=started, outcome="overloaded",
                error_text=str(error), result=None, ctx=ctx,
                breakdown=None,
            )
            raise error
        self.metrics.gauge("serve.in_flight").add(1)
        self.metrics.counter("serve.queries").inc()
        self.metrics.counter("serve.streamed_queries").inc()
        if len(targets) <= 1:
            self.metrics.counter("serve.doc_scoped_queries").inc()
        else:
            self.metrics.counter("serve.scatter_queries").inc()
        try:
            return ScatterStream(
                self, xpath, targets, route, budget, deadline_at,
                started, ctx,
            )
        except BaseException:
            self.metrics.gauge("serve.in_flight").add(-1)
            self._gate.release()
            raise

    def run_on_shard(
        self, shard: int, fn, timeout: float | None = None
    ):
        """Run ``fn(session)`` on one shard's pooled connection, under
        the admission gate — the door for read work that is not a plain
        pre-id query (node reconstruction, verification, raw reads)."""
        result, _ = self.run_on_shard_routed(shard, fn, timeout=timeout)
        return result

    def run_on_shard_routed(
        self,
        shard: int,
        fn,
        timeout: float | None = None,
        read_from: str = "primary",
    ) -> tuple:
        """Like :meth:`run_on_shard`, but routable to a replica.

        Returns ``(result, replica)`` where ``replica`` is the replica
        index that served (None when the primary did — including after
        a replica fallback)."""
        if self._closed:
            raise StorageError("query executor is closed")
        with self._admitted():
            picked = (
                self._pick_replica(shard)
                if read_from == "replica" else None
            )
            if picked is not None:
                pool, replica = picked
                try:
                    session = pool.acquire(timeout=timeout)
                except (Overloaded, StorageError):
                    self.metrics.counter("serve.replica_fallbacks").inc()
                else:
                    try:
                        result = fn(session)
                    finally:
                        pool.release(session)
                    self.metrics.counter("serve.replica_reads").inc()
                    return result, replica
            pool = self.pools[shard]
            session = pool.acquire(timeout=timeout)
            try:
                return fn(session), None
            finally:
                pool.release(session)

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Stop accepting queries and release the worker threads.

        Does not close the pools — their owner (the sharded store)
        does.
        """
        self._closed = True
        self._threads.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "QueryExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def outcome_for(error: BaseException) -> str:
    """The :data:`QUERY_OUTCOMES` dimension one error lands in."""
    if isinstance(error, Overloaded):
        return "overloaded"
    if isinstance(error, DeadlineExceeded):
        return "deadline_exceeded"
    if isinstance(error, ShardError):
        return "shard_error"
    return "error"


class ScatterStream:
    """One in-flight incremental scatter, created by
    :meth:`QueryExecutor.stream`.

    Holds the admission slot from construction until :meth:`finish`;
    exposes the per-shard ``concurrent.futures`` handles in
    :attr:`futures` so an async caller can wrap and await them in
    completion order.  Rows flow shard-by-shard through
    :meth:`collect`; the handle accumulates answers/failures so the
    terminal :meth:`finish` can report the same merged
    :class:`ScatterResult`, metrics, and wide event the materialized
    path would have.

    The ``serve.query`` root span is opened and closed *synchronously*
    at construction (the creating thread may be an event loop
    interleaving many requests, so no span can stay open across a
    suspension point); per-shard child spans attach to it cross-thread
    via the captured :class:`~repro.obs.trace.RequestContext`, and the
    request's wall time lives in ``serve.query_seconds`` as always.
    """

    def __init__(
        self,
        executor: QueryExecutor,
        xpath: str,
        targets: dict[int, list[tuple[int, int]]],
        route: str,
        budget: float | None,
        deadline_at: float | None,
        started: float,
        parent_ctx: RequestContext | None,
    ) -> None:
        self.executor = executor
        self.xpath = xpath
        self.targets = targets
        self.route = route
        self.budget = budget
        self.deadline_at = deadline_at
        self.started = started
        self.breakdown: dict | None = (
            {} if executor.request_log is not None else None
        )
        self._answers: list[_ShardAnswer] = []
        self._failures: list[tuple[int, str]] = []
        self._finished = False
        self._result: ScatterResult | None = None
        tracer = executor.tracer
        upstream_id = (
            parent_ctx.request_id if parent_ctx is not None else None
        )
        with tracer.adopt(parent_ctx):
            with tracer.span(
                "serve.query",
                xpath=str(xpath),
                shards=len(targets),
                streaming=True,
            ) as root:
                self.ctx = tracer.capture(
                    root if root else None, request_id=upstream_id
                )
                if root:
                    root.set(request_id=self.ctx.request_id)
        #: ``{future: shard}`` — all submitted at construction; a shard
        #: with no targeted documents still gets a (trivial) task so
        #: the stream always announces every shard it covers.
        cached = _spans_documents(targets)
        self.futures = {
            executor._threads.submit(
                executor._query_shard,
                shard,
                docs,
                xpath,
                deadline_at,
                budget,
                route,
                self.ctx,
                self.breakdown,
                cached,
            ): shard
            for shard, docs in targets.items()
        }

    @property
    def request_id(self) -> str:
        return self.ctx.request_id

    def deadline_remaining(self) -> float | None:
        """Seconds left on the budget (None: no deadline)."""
        if self.deadline_at is None:
            return None
        return max(0.0, self.deadline_at - time.monotonic())

    def expire(self) -> DeadlineExceeded:
        """The typed error for a stream that missed its deadline."""
        self.executor.metrics.counter("serve.deadline_exceeded").inc()
        return self.executor._deadline_error(
            self.budget, self.deadline_at or 0.0
        )

    def collect(self, future) -> tuple[int, list | None]:
        """Fold one *completed* future into the stream.

        Returns ``(shard, rows)``; ``rows`` is ``None`` when the shard
        failed under the ``"partial"`` degraded mode (the failure is
        recorded for the terminal event).  Fail-fast mode and deadline
        misses raise, exactly like the materialized gather.
        """
        shard = self.futures[future]
        try:
            answer = future.result()
        except DeadlineExceeded:
            self.executor.metrics.counter("serve.deadline_exceeded").inc()
            raise
        except XmlRelError as error:
            self.executor._note_shard_failure(shard, error, self._failures)
            return shard, None
        self._answers.append(answer)
        return shard, answer.rows

    def failures(self) -> list[tuple[int, str]]:
        """Shard failures recorded so far (``partial`` mode only)."""
        return list(self._failures)

    def finish(
        self, error: BaseException | None = None
    ) -> ScatterResult | None:
        """Terminate the stream: release the admission slot and land
        the outcome metrics plus the wide event.

        With no *error*, merges the collected answers into the
        :class:`ScatterResult` the materialized path would have
        returned.  Idempotent — the first call wins.
        """
        if self._finished:
            return self._result
        self._finished = True
        for future in self.futures:
            future.cancel()  # abandon stragglers; running tasks self-abort
        error_text: str | None = None
        if error is None:
            tracer = self.executor.tracer
            with tracer.adopt(self.ctx):
                with tracer.span(
                    "serve.merge", answers=len(self._answers)
                ):
                    self._result = QueryExecutor._merge(
                        self._answers,
                        len(self.targets),
                        self.started,
                        self._failures,
                    )
            outcome = "partial" if self._result.partial else "ok"
        else:
            outcome = outcome_for(error)
            error_text = f"{type(error).__name__}: {error}"
        self.executor.metrics.gauge("serve.in_flight").add(-1)
        self.executor._gate.release()
        self.executor._finish_query(
            xpath=self.xpath,
            targets=self.targets,
            route=self.route,
            budget=self.budget,
            started=self.started,
            outcome=outcome,
            error_text=error_text,
            result=self._result,
            ctx=self.ctx,
            breakdown=self.breakdown,
        )
        return self._result
