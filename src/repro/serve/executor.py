"""Scatter-gather query execution over sharded stores.

A :class:`QueryExecutor` owns a thread pool and one
:class:`~repro.serve.pool.ConnectionPool` per shard.  A query arrives
with its *targets* — ``{shard: [(global_doc_id, local_doc_id), ...]}``,
computed by the shard map — and becomes one :class:`ScatterStream`: the
object that admits the request, runs one read per shard, merges the
answers into ``(doc_id, pre)`` pairs sorted by global doc id then
document order (the natural order key, since ``pre`` *is* document
order within one document), releases the admission slot and accounts
for the request — on one exit path, whoever drives it.

The thread that opens the stream runs each shard's **lookup**: look its
documents up in that shard pool's result cache, and fold a full hit in
at once — no connection, no statement, no wait, so a fully cached
request is *settled* when open.
Only a shard with a miss owes an **execute** phase, that lookup with it:

* :meth:`QueryExecutor.query` drives it to completion on the calling
  thread (:meth:`ScatterStream.gather`): a doc-scoped query (exactly
  one target shard) is read right there with no fan-out overhead,
  anything else **scatters** one task per owing shard onto the worker
  pool and **gathers** the partial answers;
* :meth:`QueryExecutor.stream` hands the owing shards' futures to an
  async caller, which folds each shard's rows into its response as
  that shard completes.

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

Result cache: each pool keeps finished per-document runs — rows plus
their wire fragment (:class:`~repro.serve.pool.Run`) — looked up once
per shard pool by every request, one document or many; misses are
filled, and encoded, in the one place SQL runs
(``ScatterStream._read_pool``).  Every committed write on a shard drops
the written document's cached runs from that pool.  There is one read
path: "doc-scoped" (``len(targets) <= 1`` — it counts *shards*) only
picks the counter a request lands in, ``serve.doc_scoped_queries`` or
``serve.scatter_queries``, and :meth:`ScatterStream.gather`'s inline
lane for the one read such a request can owe.
"""

from __future__ import annotations

import functools
import threading
import time
from concurrent.futures import (
    ALL_COMPLETED,
    FIRST_EXCEPTION,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter

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
from repro.obs.trace import RequestContext, Tracer
from repro.relational.plancache import plan_key
from repro.serve.pool import ConnectionPool, Run
from repro.serve.protocol import encode_rows, join_fragments

#: Request outcomes used as the dimension on ``serve.query_seconds.*``
#: histograms, ``serve.query.outcome.*`` counters, and wide events.
QUERY_OUTCOMES = (
    "ok", "partial", "overloaded", "deadline_exceeded", "shard_error",
    "error",
)

#: Degraded-mode policies for shard failures during scatter-gather.
SHARD_ERROR_MODES = ("fail", "partial")

#: The worker pool never has fewer threads than this; past it, one per
#: shard.  The process's only query pool: every read a request owes —
#: library or gateway, one document or all — runs on it.
MIN_WORKERS = 4


@dataclass(frozen=True)
class ShardAnswer:
    """One shard's per-document runs, in target order."""

    runs: list | tuple = ()

    @property
    def row_count(self) -> int:
        return sum(len(run.rows) for run in self.runs)

    @property
    def fragment(self) -> bytes:
        """The shard's rows as the wire carries them."""
        return join_fragments(run.fragment for run in self.runs)


@dataclass(frozen=True)
class ScatterResult:
    """The merged answer of one scatter-gather (or doc-scoped) query.

    ``rows`` are ``(doc_id, pre)`` pairs — global document id and the
    node's pre-order id — sorted by ``(doc_id, pre)``, i.e. by document
    then document order.  ``partial`` is True when at least one shard
    failed under the ``"partial"`` degraded mode; ``failed_shards``
    then carries ``(shard, error message)`` pairs.
    """

    rows: tuple
    shards_queried: int
    elapsed_seconds: float
    partial: bool = False
    failed_shards: tuple = ()

    @property
    def pres(self) -> list[int]:
        """Just the node ids (useful for doc-scoped queries)."""
        return [pre for _, pre in self.rows]

    def doc_ids(self) -> list[int]:
        """Distinct matching document ids, in order."""
        return list(dict.fromkeys(doc for doc, _ in self.rows))


class QueryExecutor:
    """Thread-pool scatter-gather over per-shard connection pools."""

    def __init__(
        self,
        pools: dict[int, ConnectionPool],
        metrics: MetricsRegistry,
        tracer: Tracer,
        max_in_flight: int = 32,
        default_deadline: float | None = None,
        on_shard_error: str = "fail",
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
        self.pools = dict(pools)
        self.max_in_flight = max_in_flight
        self.default_deadline = default_deadline
        self.on_shard_error = on_shard_error
        self.metrics = metrics
        # Lazy caches for instruments with formatted names — the warm
        # query path must not rebuild "serve.shardN.query_seconds"
        # strings on every request.  Lazy (not eager) so an untouched
        # shard or outcome never materializes an empty instrument.
        self._shard_seconds: dict = {}
        self._outcome_instruments: dict = {}
        self.tracer = tracer
        #: Optional wide-event sink: one structured record per query.
        self.request_log = request_log
        self._gate = threading.Semaphore(max_in_flight)
        self._threads = ThreadPoolExecutor(
            max_workers=max(MIN_WORKERS, len(self.pools)),
            thread_name_prefix="xmlrel-serve",
        )
        self._closed = False

    # -- admission control --------------------------------------------------------

    def _admit(self) -> None:
        """Take one slot of the max-in-flight gate, or shed at once.
        Whoever is admitted owes exactly one :meth:`_release`."""
        if not self._gate.acquire(blocking=False):
            self.metrics.counter("serve.overloaded").inc()
            raise Overloaded(
                f"serving layer at max in-flight capacity "
                f"({self.max_in_flight})",
                in_flight=self.max_in_flight,
                limit=self.max_in_flight,
            )
        self.metrics.gauge("serve.in_flight").add(1)

    def _release(self) -> None:
        """Give back the slot :meth:`_admit` took."""
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

    @staticmethod
    def _lint_verdict(plans) -> str:
        """The plan linter's word on this query's cached plans:
        ``unknown`` (no cached plan to inspect), ``clean``, ``warn``, or
        ``error``."""
        if plans is None:
            return "unknown"
        diagnostics = [d for plan in plans for d in plan.diagnostics]
        if any(d.is_error for d in diagnostics):
            return "error"
        if diagnostics:
            return "warn"
        return "clean"

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

    # -- the public doors ---------------------------------------------------------

    def query(
        self,
        xpath: str,
        targets: dict[int, list[tuple[int, int]]],
        deadline: float | None = None,
        ctx: RequestContext | None = None,
    ) -> ScatterResult:
        """Execute *xpath* against *targets* and merge the answers.

        *targets* maps each shard to its ``(global_doc_id,
        local_doc_id)`` pairs; a single-shard target set is the pruned
        doc-scoped fast lane (no thread handoff), anything else
        scatters its misses across the worker pool.  *ctx* carries an
        upstream request's identity (e.g. the gateway's): the wide event
        and span tree reuse its request id instead of minting a fresh
        one, and the ``serve.query`` span parents under its span.

        Every exit — success, Overloaded shed, deadline miss, shard
        failure — lands in ``serve.query_seconds`` (plus the
        outcome-dimensioned ``serve.query_seconds.<outcome>`` /
        ``serve.query.outcome.<outcome>`` series) and, when a
        :class:`~repro.obs.events.RequestLog` is attached, emits one
        wide event carrying the full per-shard breakdown.

        This is :class:`ScatterStream` driven to completion on the
        calling thread (:meth:`ScatterStream.gather`).
        """
        return ScatterStream(self, xpath, targets, deadline, ctx).gather()

    def stream(
        self,
        xpath: str,
        targets: dict[int, list[tuple[int, int]]],
        deadline: float | None = None,
        ctx: RequestContext | None = None,
    ) -> "ScatterStream":
        """Begin the same request as :meth:`query`, but hand the
        futures of the shards that missed the result cache to the
        caller instead of waiting on them: the caller folds each
        shard's rows into its response the moment that shard completes.
        Every owed read is already on the worker pool when this returns
        — no statement runs on the calling thread, which may be an
        event loop.

        Caller contract: consume the handle's futures (each through
        :meth:`ScatterStream.collect`) inside ``with stream:``, or call
        :meth:`ScatterStream.finish` exactly once on every path — that
        is what releases the admission slot and lands the
        latency/outcome metrics and the wide event.
        """
        stream = ScatterStream(self, xpath, targets, deadline, ctx)
        stream.submit()
        return stream

    def run_on_shard(self, shard: int, fn, timeout: float | None = None):
        """Run ``fn(session)`` on one shard's pooled connection, under
        the admission gate, and return what it returns — the door for
        read work that is not a plain pre-id query (node
        reconstruction, verification, query reports, raw reads)."""
        if self._closed:
            raise StorageError("query executor is closed")
        self._admit()
        try:
            with self.pools[shard].connection(timeout) as session:
                return fn(session)
        finally:
            self._release()

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
    """One request, from admission to its wide event — the only
    execution path: :meth:`QueryExecutor.query`,
    :meth:`QueryExecutor.stream` and the gateway all open one.

    Construction validates, fixes the deadline, takes the admission
    slot, counts the request, opens its ``serve.query`` root and folds
    in every shard the result cache answers (:meth:`_open_shards`);
    :meth:`finish` (also ``__exit__``) merges what was collected,
    releases the slot and lands the latency/outcome metrics plus the
    wide event — once, whichever way the request ends.  A request shed
    at the gate, or past its deadline at the lookup, is finished before
    the constructor raises.

    In between, unless the stream is :attr:`settled`, a *driver* runs
    the reads still owed and folds each answer in (:meth:`collect`):

    * :meth:`gather` blocks the calling thread; a single-shard request
      runs its read right there, with no pool hand-off;
    * an async caller (the gateway's one driver, behind both of its
      routes) calls :meth:`submit`, awaits :attr:`futures` in
      completion order and collects each; :attr:`folded` is what has
      landed so far.

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
        deadline: float | None = None,
        ctx: RequestContext | None = None,
    ) -> None:
        if executor._closed:
            raise StorageError("query executor is closed")
        self.executor = executor
        self.xpath = xpath
        self.targets = targets
        self.budget = (
            executor.default_deadline if deadline is None else deadline
        )
        self.deadline_at = (
            None if self.budget is None else time.monotonic() + self.budget
        )
        self.started = time.perf_counter()
        #: The request's trace context: the upstream one (or None)
        #: until the ``serve.query`` root exists, then the root's, under
        #: the same request id.
        self.ctx = ctx
        #: Per-shard entries of the wide event (None: no request log).
        self.breakdown: dict | None = (
            {} if executor.request_log is not None else None
        )
        #: ``{future: shard}`` for the reads on the worker pool; empty
        #: until (unless) a driver submits them.
        self.futures: dict = {}
        #: ``(shard, answer)`` of every shard folded in so far, in fold
        #: order: the result-cache hits of the lookup phase first, then
        #: whatever a driver has collected (``None``: the shard failed
        #: under the ``"partial"`` degraded mode).
        self.folded: list[tuple[int, ShardAnswer | None]] = []
        #: ``(shard, read)`` a driver still has to run: the misses.
        self._owed: list = []
        #: The merged answer, once :meth:`finish` ran without an error.
        self.result: ScatterResult | None = None
        self._runs: list[Run] = []
        self._failures: list[tuple[int, str]] = []
        self._holds_slot = False
        self._finished = False
        metrics = executor.metrics
        tracer = executor.tracer
        try:
            executor._admit()
            self._holds_slot = True
            metrics.counter("serve.queries").inc()
            metrics.counter(
                "serve.doc_scoped_queries" if len(targets) <= 1
                else "serve.scatter_queries"
            ).inc()
            upstream_id = ctx.request_id if ctx is not None else None
            with tracer.adopt(ctx):
                with tracer.span(
                    "serve.query", xpath=str(xpath), shards=len(targets)
                ) as root:
                    self.ctx = tracer.capture(
                        root if root else None, request_id=upstream_id
                    )
                    if root:
                        root.set(request_id=self.ctx.request_id)
            self._open_shards()
        except BaseException as error:
            self.finish(error)
            raise

    def __enter__(self) -> "ScatterStream":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.finish(exc)

    @property
    def request_id(self) -> str:
        return self.ctx.request_id

    @property
    def settled(self) -> bool:
        """Nothing owed and nothing in flight: every answer is in."""
        return not self._owed and not self.futures

    @property
    def fragment(self) -> bytes:
        """:attr:`result`'s rows as the wire carries them."""
        return join_fragments(run.fragment for run in self._runs)

    def deadline_remaining(self) -> float | None:
        """Seconds left on the budget (None: no deadline)."""
        if self.deadline_at is None:
            return None
        return max(0.0, self.deadline_at - time.monotonic())

    def _deadline_error(self) -> DeadlineExceeded:
        budget = self.budget or 0.0
        return DeadlineExceeded(
            f"query exceeded its {budget:.3f}s deadline",
            deadline_seconds=budget,
            elapsed=budget + (time.monotonic() - (self.deadline_at or 0.0)),
        )

    def expire(self) -> DeadlineExceeded:
        """The typed error for a stream that missed its deadline."""
        self.executor.metrics.counter("serve.deadline_exceeded").inc()
        return self._deadline_error()

    # -- per-shard work -----------------------------------------------------------

    def _open_shards(self) -> None:
        """The lookup phase, on the opening thread: take each shard's
        one result-cache lookup (the data version with it), and fold a
        full hit in at once; a shard with a miss goes to :attr:`_owed`,
        that lookup with it.  Bounded work: one short lock hold per
        shard; no connection, no statement, no wait."""
        pools = self.executor.pools
        for shard, docs in self.targets.items():
            read = ShardAnswer  # no targeted document: the empty answer
            if docs:
                looked = pools[shard].result_cache.lookup(docs, self.xpath)
                read = functools.partial(
                    self._read_shard, shard, docs, looked
                )
                if None in looked[1]:
                    self._owed.append((shard, read))
                    continue
            self._fold(shard, read)

    def _read_shard(
        self,
        shard: int,
        docs: list[tuple[int, int]],
        looked: tuple[int, list],
    ) -> ShardAnswer:
        """Answer one shard's *docs* from *looked* — its pool's lookup —
        running the XPath over the documents it missed.  With nothing
        missed this touches no connection, which is why a full hit runs
        it while opening.

        Adopts the request's trace context, so this shard's spans nest
        under the request root even on a pool thread, and — when the
        wide-event log is on — fills this shard's entry of the
        per-shard fan-out record (latency, plan- and result-cache
        warmth, lint verdict, outcome).
        """
        executor = self.executor
        tracer = executor.tracer
        pool = executor.pools[shard]
        with tracer.adopt(self.ctx), tracer.span(
            "serve.shard", shard=shard, docs=len(docs)
        ) as span:
            info: dict | None = None
            if self.breakdown is not None:
                info = self.breakdown[shard] = {
                    "shard": shard, "docs": len(docs),
                }
            started = time.perf_counter()
            try:
                with tracer.span("serve.execute", shard=shard) as read_span:
                    runs, served = self._read_pool(pool, docs, looked)
                    if read_span:
                        read_span.set(result_cache=served)
            except XmlRelError as error:
                if info is not None:
                    info["outcome"] = "error"
                    info["error"] = f"{type(error).__name__}: {error}"
                raise
            finally:
                elapsed = time.perf_counter() - started
                executor._shard_histogram(shard).observe(elapsed)
                if info is not None:
                    info["elapsed_seconds"] = elapsed
            answer = ShardAnswer(runs)
            if span:
                span.set(rows=answer.row_count)
            if info is not None:
                info["outcome"] = "ok"
                info["rows"] = answer.row_count
                info["result_cache"] = served
                plans = pool.plan_cache.peek(
                    plan_key(pool.scheme_name, pool.epoch, self.xpath)
                )
                info["plan_cached"] = plans is not None
                info["lint"] = executor._lint_verdict(plans)
            return answer

    def _read_pool(
        self,
        pool: ConnectionPool,
        docs: list[tuple[int, int]],
        looked: tuple[int, list],
    ) -> tuple[list[Run], str]:
        """The one place SQL runs for a request.  Returns one
        :class:`~repro.serve.pool.Run` per document plus what the
        pool's result cache did in *looked*: ``"hit"`` (every document
        cached — no connection acquired, no SQL), ``"miss"`` or
        ``"partial"``.

        A missed document's rows are encoded here, on the thread that
        read them.  The data version came with the lookup, before the
        acquire and before any statement runs, so rows of a document
        read across a write to it are refused by ``put``.  Checks the
        deadline between documents so a slow shard stops burning its
        pool slot once the query has already missed."""
        xpath = self.xpath
        deadline_at = self.deadline_at
        timeout = pool.acquire_timeout
        if deadline_at is not None:
            remaining = deadline_at - time.monotonic()
            if remaining <= 0:
                raise self._deadline_error()
            timeout = min(timeout, remaining)
        version, found = looked
        misses = found.count(None)
        if not misses:
            return found, "hit"
        runs: list[Run] = []
        session = pool.acquire(timeout=timeout)
        try:
            for doc, run in zip(docs, found):
                if run is None:
                    if (
                        deadline_at is not None
                        and time.monotonic() > deadline_at
                    ):
                        raise self._deadline_error()
                    global_doc, local_doc = doc
                    rows = tuple(
                        (global_doc, pre)
                        for pre in session.scheme.query_pres(
                            local_doc, xpath
                        )
                    )
                    run = Run(global_doc, rows, encode_rows(rows))
                    pool.result_cache.put(version, doc, xpath, run)
                runs.append(run)
            return runs, "miss" if misses == len(docs) else "partial"
        finally:
            pool.release(session)

    # -- the two drivers ----------------------------------------------------------

    def submit(self) -> None:
        """Put every owed read on the worker pool (:attr:`futures`).
        Non-blocking; a stream that cannot submit is finished before
        this raises."""
        owed, self._owed = self._owed, []
        try:
            threads = self.executor._threads
            for shard, read in owed:
                self.futures[threads.submit(read)] = shard
        except BaseException as error:
            self.finish(error)
            raise

    def gather(self) -> ScatterResult:
        """The blocking driver: run the request to its end on the
        calling thread and return the merged answer.

        One target shard (the doc-scoped fast lane) is read right here,
        with no pool hand-off.  Otherwise the owed reads scatter across
        the worker pool and this waits for them — fail-fast wakes on
        the first failure, ``partial`` mode sits out the full fan-out
        (a late shard is still a good shard) — then collects in target
        order.  Shards still running at the deadline are abandoned.
        """
        with self:
            if len(self.targets) <= 1:
                owed, self._owed = self._owed, []
                for shard, read in owed:  # 0 or 1 iterations
                    self._fold(shard, read)
            else:
                self.submit()
                done, not_done = wait(
                    self.futures,
                    timeout=self.deadline_remaining(),
                    return_when=(
                        FIRST_EXCEPTION
                        if self.executor.on_shard_error == "fail"
                        else ALL_COMPLETED
                    ),
                )
                for future in self.futures:
                    if future in done:
                        self.collect(future)  # raises what fail-fast woke on
                if not_done:
                    raise self.expire()  # the fan-out missed the clock
        return self.result

    def collect(self, future) -> tuple[int, ShardAnswer | None]:
        """Fold one *completed* future into the stream.

        Returns ``(shard, answer)``; the answer is ``None`` when the
        shard failed under the ``"partial"`` degraded mode (the failure
        is recorded for the terminal event).  Fail-fast mode and
        deadline misses raise.
        """
        shard = self.futures[future]
        return shard, self._fold(shard, future.result)

    def _fold(self, shard: int, answer_of) -> ShardAnswer | None:
        """Take one shard's answer from ``answer_of()`` — a finished
        future's ``result``, or the read itself when it runs here."""
        try:
            answer = answer_of()
        except DeadlineExceeded:
            self.executor.metrics.counter("serve.deadline_exceeded").inc()
            raise
        except XmlRelError as error:
            self.executor._note_shard_failure(shard, error, self._failures)
            answer = None
        self.folded.append((shard, answer))
        return answer

    def failures(self) -> list[tuple[int, str]]:
        """Shard failures recorded so far (``partial`` mode only)."""
        return list(self._failures)

    # -- the one exit -------------------------------------------------------------

    def finish(
        self, error: BaseException | None = None
    ) -> ScatterResult | None:
        """End the request: release the admission slot and land the
        outcome metrics plus the wide event.

        With no *error*, merges the collected answers into
        :attr:`result` and returns it.  Idempotent — the first call
        wins.
        """
        if self._finished:
            return self.result
        self._finished = True
        for future in self.futures:
            future.cancel()  # abandon stragglers; running tasks self-abort
        error_text: str | None = None
        if error is None:
            tracer = self.executor.tracer
            answers = [a for _, a in self.folded if a is not None]
            with tracer.adopt(self.ctx), tracer.span(
                "serve.merge", answers=len(answers)
            ):
                self.result = self._merge(answers)
            outcome = "partial" if self.result.partial else "ok"
        else:
            outcome = outcome_for(error)
            error_text = f"{type(error).__name__}: {error}"
        if self._holds_slot:
            self.executor._release()
        self._finish_query(outcome, error_text)
        return self.result

    def _merge(self, answers: list[ShardAnswer]) -> ScatterResult:
        """Fold the collected per-shard *answers* into one sorted
        result (and :attr:`fragment`'s runs)."""
        # Each run is one document in document order, so the sorted
        # answer is the runs in doc-id order, end to end.
        self._runs = sorted(
            chain.from_iterable(answer.runs for answer in answers),
            key=attrgetter("doc_id"),
        )
        return ScatterResult(
            rows=tuple(chain.from_iterable(run.rows for run in self._runs)),
            shards_queried=len(self.targets),
            elapsed_seconds=time.perf_counter() - self.started,
            partial=bool(self._failures),
            failed_shards=tuple(self._failures),
        )

    def _finish_query(self, outcome: str, error_text: str | None) -> None:
        """Latency + outcome accounting and the wide event, for every
        way a request can end (success and all raises alike)."""
        executor = self.executor
        result = self.result
        elapsed = (
            result.elapsed_seconds if result is not None
            else time.perf_counter() - self.started
        )
        executor.metrics.histogram("serve.query_seconds").observe(elapsed)
        outcome_histogram, outcome_counter = executor._outcome_pair(outcome)
        outcome_histogram.observe(elapsed)
        outcome_counter.inc()
        if executor.request_log is None:
            return
        request_id = (
            self.ctx.request_id if self.ctx is not None
            else executor.tracer.capture().request_id
        )
        event = {
            "event": "query",
            "request_id": request_id,
            "ts": time.time(),
            "xpath": str(self.xpath),
            "shards": len(self.targets),
            "docs": sum(len(docs) for docs in self.targets.values()),
            "outcome": outcome,
            "elapsed_seconds": elapsed,
            "deadline_seconds": self.budget,
            "deadline_slack_seconds": (
                None if self.budget is None else self.budget - elapsed
            ),
        }
        if error_text is not None:
            event["error"] = error_text
        if result is not None:
            event["rows"] = len(result.rows)
            event["partial"] = result.partial
            if result.failed_shards:
                event["failed_shards"] = list(result.failed_shards)
        if self.breakdown:
            event["per_shard"] = [
                self.breakdown[shard] for shard in sorted(self.breakdown)
            ]
        executor.request_log.emit(event)
