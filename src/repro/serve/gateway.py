"""``repro.serve.gateway`` — the async network front door.

Everything below :class:`Gateway` is a library; this module is the
socket.  An asyncio HTTP/1.1 server (stdlib only, own event loop on a
named daemon thread) fronts a :class:`~repro.serve.sharded.ShardedStore`
with a small JSON protocol (:mod:`repro.serve.protocol`):

* ``POST /query`` / ``GET /query?xpath=...`` — execute an XPath over
  the store: one document (``doc_id``) or a full scatter-gather.
* ``stream=true`` — chunked NDJSON: rows flushed per shard *as each
  shard completes* instead of after the whole scatter materializes, so
  first-byte latency tracks the fastest shard, not the slowest.
* ``GET /healthz`` — the store's health document (200/503).
* ``GET /metrics`` — Prometheus text exposition of the store registry.
* ``GET /snapshot`` — health, metrics, windows, request-log tail and
  store facts in one JSON document (``python -m repro.obs.top``).
* ``GET /stats`` — gateway-side counters and quota occupancy.

This is the process's only HTTP surface.  The four read-only routes
are ops documents (:mod:`repro.obs.ops`): built and encoded on the
loop's default executor — never on the query worker pool, so they
answer while every worker holds a read — outside quota and admission,
and a failure in one is a typed JSON error on a connection that stays
usable.

**Division of labour.**  The event loop does only cheap, non-blocking
work: HTTP parsing, XPath parsing, the optional DTD/path-summary lint
(unsatisfiable queries short-circuit to an empty answer with zero SQL),
per-client quota admission, shard-map target resolution, and opening
the executor's one request path
(:class:`~repro.serve.executor.ScatterStream`): admission plus the
result-cache lookups.  Execution always happens off-loop, on the
process's one query worker pool (the executor's): the gateway's one
driver (:meth:`Gateway._drive`) submits the reads a stream still owes
and awaits their futures as asyncio awaitables, folding each shard in
as it completes.  The two routes differ only in what they do with a
folded shard — the streamed one flushes its ``rows`` event, the
materialized one waits for the last and splices one body.  A stream
*settled* at open — every shard a hit, whether it names one document
or all — owes nothing, so the same code answers it from the loop in
one write, from wire fragments cached beside the rows.  Nothing on the
loop ever touches SQLite, a pooled connection or a blocking wait
(:mod:`repro.analysis.concurrency` rule C006).  An exception that is
not one of the library's typed errors still ends the request in an
answer — a JSON 500, or the in-band ``error`` event once a chunked
head is out — never in a dropped connection.

**Admission is layered.**  A per-client token bucket
(:class:`ClientQuotas`) sheds abusive clients *before* any work, with a
``Retry-After`` hint computed from the bucket's refill rate; requests
that pass it still face the executor's global ``max_in_flight`` gate.
Both rejections surface as the typed :class:`~repro.errors.Overloaded`
and therefore the same HTTP 429 through the one status table in
:mod:`repro.errors` — Overloaded→429, DeadlineExceeded→504,
ShardError→502; a ``partial``-mode degraded answer is HTTP 206.

**Observability.**  Every request opens a ``gateway.request`` span on
the loop (closed before the first suspension point — an event loop
interleaves requests, so spans never stay open across an ``await``;
executor spans parent under it via the captured
:class:`~repro.obs.trace.RequestContext`), lands in ``gateway.*``
windowed metrics (per-route latency, status counts, quota rejections),
and emits one ``http`` wide event when the store carries a request log.
The read-only routes land in the same metrics but emit no event: a
scrape must not push real requests out of the tail it reports.

**Lock discipline.**  This module owns one lock — the quota table's —
registered as class ``pool`` in
:data:`repro.analysis.concurrency.LOCK_SITES`; only bucket arithmetic
runs under it.
"""

from __future__ import annotations

import asyncio
import math
import threading
import time
import urllib.parse

from repro.errors import (
    Overloaded,
    ProtocolError,
    StorageError,
    XmlRelError,
    error_payload,
    http_status,
)
from repro.obs.ops import (
    PROMETHEUS_CONTENT_TYPE,
    health_document,
    snapshot_document,
    to_prometheus,
)
from repro.serve.executor import ScatterStream
from repro.serve.protocol import (
    ANONYMOUS_CLIENT,
    CLIENT_HEADER,
    JSON_CONTENT_TYPE,
    MAX_BODY_BYTES,
    NDJSON_CONTENT_TYPE,
    error_body,
    ndjson_line,
    parse_json_body,
    parse_query_params,
    result_line,
    rows_event,
)
from repro.xpath.parser import parse_xpath

#: Reason phrases for the statuses the gateway emits.
_REASONS = {
    200: "OK",
    206: "Partial Content",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Header lines one request may carry.
MAX_HEADERS = 100

#: Route labels used in ``gateway.route.<route>.seconds`` histograms:
#: the query routes (the only ones that emit an ``http`` wide event),
#: the read-only ops routes (``GET /<route>``), and everything else.
QUERY_ROUTES = ("query", "query_stream")
OPS_ROUTES = ("healthz", "metrics", "snapshot", "stats")
ROUTES = (*QUERY_ROUTES, *OPS_ROUTES, "other")


#: The zero-length chunk that ends a chunked response.
_LAST_CHUNK = b"0\r\n\r\n"


def _chunk(payload: bytes) -> bytes:
    """*payload* framed as one HTTP/1.1 chunk."""
    return b"%x\r\n%b\r\n" % (len(payload), payload)


class ClientQuotas:
    """Per-client token-bucket admission, layered *before* the
    executor's global max-in-flight gate.

    Each client id refills at *rate* tokens/second up to *burst*; a
    request costs one token.  :meth:`try_admit` returns ``None`` when
    admitted, else the seconds until the next token — the gateway's
    ``Retry-After``.  With ``rate=None`` the table admits everything
    (quotas off).

    The table is bounded: past *max_clients* distinct ids the stalest
    bucket is evicted (an evicted client simply restarts with a full
    burst — quotas bound throughput, they are not an audit log).
    """

    def __init__(
        self,
        rate: float | None,
        burst: float | None = None,
        max_clients: int = 4096,
    ) -> None:
        if rate is not None and rate <= 0:
            raise StorageError("quota rate must be > 0 (or None: off)")
        self.rate = rate
        self.burst = float(burst if burst is not None else (rate or 1.0))
        if rate is not None and self.burst < 1.0:
            raise StorageError("quota burst must be >= 1")
        self.max_clients = max_clients
        # Guards the bucket table.  Lock class "pool" (registered in
        # repro.analysis.concurrency.LOCK_SITES): bucket arithmetic
        # only, nothing blocking.
        self._lock = threading.Lock()
        self._buckets: dict[str, list[float]] = {}

    def try_admit(self, client: str, now: float | None = None) -> float | None:
        """Spend one token for *client*; ``None`` when admitted, else
        the retry-after seconds."""
        if self.rate is None:
            return None
        if now is None:
            now = time.monotonic()
        with self._lock:
            bucket = self._buckets.get(client)
            if bucket is None:
                if len(self._buckets) >= self.max_clients:
                    stalest = min(
                        self._buckets, key=lambda c: self._buckets[c][1]
                    )
                    del self._buckets[stalest]
                bucket = self._buckets[client] = [self.burst, now]
            tokens = min(
                self.burst, bucket[0] + (now - bucket[1]) * self.rate
            )
            bucket[1] = now
            if tokens >= 1.0:
                bucket[0] = tokens - 1.0
                return None
            bucket[0] = tokens
            return (1.0 - tokens) / self.rate

    def stats(self) -> dict:
        with self._lock:
            clients = len(self._buckets)
        return {
            "rate_per_second": self.rate,
            "burst": self.burst,
            "clients": clients,
            "max_clients": self.max_clients,
        }


class Gateway:
    """The HTTP/JSON front end over one sharded store.

    :param store: the :class:`~repro.serve.sharded.ShardedStore` served.
    :param quota_rate: per-client admitted requests/second (None: off).
    :param quota_burst: per-client burst allowance (default: the rate).
    :param analyzer: optional
        :class:`~repro.analysis.xpathlint.XPathAnalyzer`; queries it
        proves unsatisfiable short-circuit on the event loop with an
        empty answer and zero SQL.
    :param idle_timeout: seconds a keep-alive connection may sit idle.

    ``start()`` binds the socket and runs the event loop on a named
    daemon thread; the gateway is usable from synchronous code (tests,
    benchmarks, ``curl``) immediately after.  ``stop()`` (or the
    owning store's ``close()``) shuts it down.  The gateway owns no
    worker threads: every read runs on ``store.executor``'s pool.
    """

    def __init__(
        self,
        store,
        host: str = "127.0.0.1",
        port: int = 0,
        quota_rate: float | None = None,
        quota_burst: float | None = None,
        analyzer=None,
        idle_timeout: float = 30.0,
    ) -> None:
        self.store = store
        self.executor = store.executor
        self.metrics = store.metrics
        self.tracer = store.tracer
        self.host = host
        self.requested_port = port
        self.analyzer = analyzer
        self.idle_timeout = idle_timeout
        self.quotas = ClientQuotas(quota_rate, quota_burst)
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._port: int | None = None
        self._route_seconds: dict = {}
        self._status_counters: dict = {}

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> "Gateway":
        """Bind and serve; returns once the socket accepts connections."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run_loop,
            name="xmlrel-gateway",
            daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise StorageError("gateway failed to start within 10s")
        if self._startup_error is not None:
            raise StorageError(
                f"gateway failed to start: {self._startup_error}"
            ) from self._startup_error
        return self

    def _run_loop(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as error:  # surfaced to start()/stop()
            self._startup_error = error
        finally:
            self._ready.set()

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_connection, self.host, self.requested_port
        )
        self._port = server.sockets[0].getsockname()[1]
        self._ready.set()
        async with server:
            await self._stop_event.wait()

    def stop(self) -> None:
        """Shut the listener down; idempotent."""
        loop, stop_event = self._loop, self._stop_event
        if loop is not None and stop_event is not None:
            try:
                loop.call_soon_threadsafe(stop_event.set)
            except RuntimeError:
                pass  # loop already gone
        if self._thread is not None:
            self._thread.join(timeout=10.0)

    @property
    def port(self) -> int:
        if self._port is None:
            raise StorageError("gateway is not started")
        return self._port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "Gateway":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- metrics ------------------------------------------------------------------

    def _route_histogram(self, route: str):
        histogram = self._route_seconds.get(route)
        if histogram is None:
            histogram = self._route_seconds[route] = (
                self.metrics.histogram(f"gateway.route.{route}.seconds")
            )
        return histogram

    def _status_counter(self, status: int):
        counter = self._status_counters.get(status)
        if counter is None:
            counter = self._status_counters[status] = (
                self.metrics.counter(f"gateway.status.{status}")
            )
        return counter

    def _observe(
        self,
        route: str,
        status: int,
        started: float,
        request_id: str | None,
        client: str | None,
        xpath: str | None = None,
        first_byte: float | None = None,
        rows: int | None = None,
    ) -> None:
        """Per-request accounting: route histogram, status counter,
        and — for the query routes — the ``http`` wide event."""
        elapsed = time.perf_counter() - started
        self.metrics.counter("gateway.requests").inc()
        self._route_histogram(route).observe(elapsed)
        self._status_counter(status).inc()
        if first_byte is not None:
            self.metrics.histogram("gateway.first_byte_seconds").observe(
                first_byte - started
            )
        log = self.executor.request_log
        # Scrapes do not pollute what they report: no event for the
        # read-only routes (or 404s), whatever their polling rate.
        if log is not None and route in QUERY_ROUTES:
            event = {
                "event": "http",
                "ts": time.time(),
                "route": route,
                "status": status,
                "elapsed_seconds": elapsed,
            }
            if request_id is not None:
                event["request_id"] = request_id
            if client is not None:
                event["client"] = client
            if xpath is not None:
                event["xpath"] = xpath
            if first_byte is not None:
                event["first_byte_seconds"] = first_byte - started
            if rows is not None:
                event["rows"] = rows
            log.emit(event)

    # -- connection handling ------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        self.metrics.gauge("gateway.connections").add(1)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                    if request is None:
                        break
                    close = await self._route_request(writer, *request)
                except XmlRelError as error:
                    # Wire-level failures (malformed request line or
                    # head): typed status, then close.
                    await self._respond_json(
                        writer,
                        http_status(error),
                        error_body(error),
                        keep_alive=False,
                    )
                    close = True
                if close:
                    break
        except ConnectionError:
            pass  # hangup mid-response; reads end in _read_request
        finally:
            self.metrics.gauge("gateway.connections").add(-1)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader):
        """One HTTP request off the wire: ``(method, path, params,
        headers, body, version)``, or None when the connection should just
        close: EOF, a head or body cut short, or *idle_timeout* seconds
        without a complete request — head and body share the one
        timeout, so a client that stalls mid-body is dropped like one
        that never speaks."""
        try:
            return await asyncio.wait_for(
                self._read_head_and_body(reader), timeout=self.idle_timeout
            )
        except (
            asyncio.TimeoutError, TimeoutError, asyncio.IncompleteReadError
        ):
            return None

    async def _read_head_and_body(self, reader):
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            # No blank line within the stream limit: an over-long
            # request line, header line, or head as a whole.
            raise ProtocolError("request head too long") from None
        request_line, *header_lines = (
            head[:-4].decode("latin-1").split("\r\n")
        )
        parts = request_line.split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise ProtocolError(f"malformed request line: {request_line!r}")
        method, target, version = parts[0].upper(), parts[1], parts[2]
        if len(header_lines) > MAX_HEADERS:
            raise ProtocolError("too many request headers")
        headers: dict[str, str] = {}
        for line in header_lines:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        if "transfer-encoding" in headers:
            # Reading on would take the chunk bytes for a second request.
            raise ProtocolError(
                "Transfer-Encoding request bodies are not supported; "
                "send Content-Length"
            )
        raw_length = headers.get("content-length", "").strip()
        if raw_length:
            try:
                length = int(raw_length)
            except ValueError:
                raise ProtocolError(
                    f"invalid Content-Length: {raw_length!r}"
                ) from None
            if length < 0:
                raise ProtocolError(
                    f"negative Content-Length: {length}"
                )
        else:
            length = 0
        if length > MAX_BODY_BYTES:
            raise ProtocolError(
                f"request body exceeds {MAX_BODY_BYTES} bytes"
            )
        body = await reader.readexactly(length) if length else b""
        split = urllib.parse.urlsplit(target)
        params = dict(urllib.parse.parse_qsl(split.query))
        return method, split.path, params, headers, body, version

    async def _route_request(
        self, writer, method, path, params, headers, body, version
    ) -> bool:
        """Dispatch one parsed request; returns True when the
        connection must close (streams always close).  HTTP/1.1 keeps
        the connection unless told ``close``; HTTP/1.0 closes it unless
        told ``keep-alive``."""
        connection = headers.get("connection", "").lower()
        keep_alive = (
            connection == "keep-alive" if version == "HTTP/1.0"
            else connection != "close"
        )
        if path == "/query":
            return await self._handle_query(
                writer, method, params, headers, body, keep_alive
            )
        started = time.perf_counter()
        route = path[1:] if path[1:] in OPS_ROUTES else "other"
        try:
            # Off the loop (instrument locks, pool probes) and off the
            # query worker pool (answers while every worker holds a read).
            status, content_type, payload = await asyncio.to_thread(
                self._ops_response, path
            )
        except Exception as error:
            # An ops route never takes the endpoint down.
            status = http_status(error)
            content_type = JSON_CONTENT_TYPE
            payload = ndjson_line(error_payload(error))
        await self._respond(
            writer, status, content_type, payload, keep_alive=keep_alive
        )
        self._observe(route, status, started, None, None)
        return not keep_alive

    def _ops_response(self, path: str) -> tuple[int, str, bytes]:
        """``(status, content type, encoded body)`` of a read-only
        route.  Blocking — never called on the event loop."""
        if path == "/metrics":
            body = to_prometheus(self.metrics).encode("utf-8")
            return 200, PROMETHEUS_CONTENT_TYPE, body
        status = 200
        if path == "/healthz":
            document = health_document(self.store.health)
            if document.get("status") != "ok":
                status = 503
        elif path == "/snapshot":
            document = snapshot_document(
                self.metrics,
                health_document(self.store.health),
                self.executor.request_log,
                self.store.facts(),
            )
        elif path == "/stats":
            document = self.snapshot()
        else:
            status = 404
            document = {"error": "NotFound", "message": f"no route {path}",
                        "status": 404}
        return status, JSON_CONTENT_TYPE, ndjson_line(document)

    # -- the query route ----------------------------------------------------------

    def _prepare(self, method, params, headers, body):
        """The on-loop phases: protocol validation, XPath parse, the
        optional satisfiability lint, quota admission, and shard-map
        target resolution.  Purely synchronous — runs under the
        ``gateway.request`` span, raises typed errors only."""
        default_client = headers.get(CLIENT_HEADER, ANONYMOUS_CLIENT)
        with self.tracer.span("gateway.parse"):
            if method == "POST":
                spec = parse_json_body(body, default_client)
            elif method == "GET":
                spec = parse_query_params(params, default_client)
            else:
                raise ProtocolError(
                    f"method {method} not allowed on /query"
                )
            # The early syntax check (typed 400 before admission); the
            # shards' translators read the same per-process memo.
            parsed = parse_xpath(spec.xpath)
        with self.tracer.span("gateway.admit", client=spec.client):
            retry_after = self.quotas.try_admit(spec.client)
        if retry_after is not None:
            self.metrics.counter("gateway.quota_rejections").inc()
            error = Overloaded(
                f"client {spec.client!r} exceeded its admission quota "
                f"({self.quotas.rate:g}/s, burst {self.quotas.burst:g})"
            )
            error.retry_after = retry_after
            raise error
        short_circuit = False
        if self.analyzer is not None:
            with self.tracer.span("gateway.lint"):
                short_circuit = self.analyzer.satisfiable(parsed) is False
            if short_circuit:
                self.metrics.counter("gateway.short_circuits").inc()
        return spec, self.store.targets(spec.doc_id), short_circuit

    async def _handle_query(
        self, writer, method, params, headers, body, keep_alive
    ) -> bool:
        started = time.perf_counter()
        # detached=False: this root legitimately originates on the
        # event-loop thread — it IS the request origin, not broken
        # cross-thread propagation (which the tracer would flag).
        root = self.tracer.start_span(
            "gateway.request", method=method, detached=False
        )
        ctx = self.tracer.capture()
        request_id = ctx.request_id
        route = "query"
        status = 500
        spec = None
        first_byte = None
        rows = None
        close = not keep_alive
        try:
            try:
                spec, targets, short_circuit = self._prepare(
                    method, params, headers, body
                )
                if root:
                    root.set(
                        xpath=spec.xpath,
                        client=spec.client,
                        stream=spec.stream,
                    )
            finally:
                # The loop interleaves requests: no span survives an
                # await.  Children attach via the captured context.
                self.tracer.end_span(root)
            route = "query_stream" if spec.stream else "query"
            # The one door: admission and the result-cache lookups
            # happen right here, on the loop.  A request it refuses (shed
            # at the gate, past its deadline at the lookup) is answered
            # below like any typed error, streamed or not.
            stream = None if short_circuit else ScatterStream(
                self.executor, spec.xpath, targets,
                spec.deadline, ctx,
            )
            # From here a streamed response (short-circuit ones
            # included) is chunked with Connection: close — never reuse.
            close = close or spec.stream
            if stream is None:
                status, rows = await self._respond_short_circuit(
                    writer, spec, request_id, started, keep_alive
                )
            elif spec.stream:
                status, first_byte, rows = await self._stream_query(
                    writer, stream, spec
                )
            else:
                status, rows = await self._materialized_query(
                    writer, stream, keep_alive
                )
        except ConnectionError:
            raise  # the client hung up: nobody left to answer
        except Exception as error:
            # Nothing is on the wire yet.  A typed error answers by the
            # one status table on a connection that stays usable; an
            # untyped one (a bug under a shard read) is a 500 and the
            # connection closes — it never takes the endpoint down.
            status = http_status(error)
            close = close or not isinstance(error, XmlRelError)
            extra = {}
            if isinstance(error, Overloaded):
                retry_after = getattr(error, "retry_after", None) or 1.0
                extra["Retry-After"] = str(
                    max(1, math.ceil(retry_after))
                )
            await self._respond_json(
                writer,
                status,
                error_body(error, request_id),
                keep_alive=not close,
                extra_headers=extra,
            )
        if root:
            root.set(status=status)
        self._observe(
            route,
            status,
            started,
            request_id,
            spec.client if spec is not None else None,
            xpath=spec.xpath if spec is not None else None,
            first_byte=first_byte,
            rows=rows,
        )
        return close

    async def _respond_short_circuit(
        self, writer, spec, request_id, started, keep_alive
    ):
        """An unsatisfiable query answered from the loop: zero rows,
        zero SQL, zero executor occupancy."""
        body = {
            "request_id": request_id,
            "rows": [],
            "row_count": 0,
            "shards_queried": 0,
            "elapsed_seconds": time.perf_counter() - started,
            "partial": False,
            "short_circuit": True,
        }
        if spec.stream:
            await self._send(
                writer,
                self._head(200, NDJSON_CONTENT_TYPE, chunked=True),
                _chunk(ndjson_line(
                    {"event": "start", "request_id": request_id,
                     "shards": 0, "short_circuit": True}
                )),
                _chunk(ndjson_line(
                    {"event": "end", "outcome": "ok", "rows": 0,
                     "short_circuit": True}
                )),
                _LAST_CHUNK,
            )
        else:
            await self._respond_json(
                writer, 200, body, keep_alive=keep_alive
            )
        return 200, 0

    async def _drive(self, stream, flush=None) -> None:
        """The one driver of a request on the loop: put the reads
        *stream* still owes on the worker pool, await their futures as
        asyncio awaitables and fold each into ``stream.folded`` as it
        completes; reads still executing at the deadline raise the
        typed miss.  *flush*, when given, is awaited before every
        suspension (the streamed route sends what is folded so far).
        A settled stream owes nothing and is finished right here.

        The stream holds an admission slot.  Leaving this block is the
        one place it is finished — slot released, metrics and wide
        event landed — whether the request was answered, failed,
        expired, was cancelled or lost its client inside *flush*."""
        with stream:
            stream.submit()
            pending = {}
            for future in stream.futures:
                wrapped = asyncio.wrap_future(future)
                # Consume late results/exceptions so abandoned shard
                # tasks never log "exception was never retrieved".
                wrapped.add_done_callback(
                    lambda f: f.cancelled() or f.exception()
                )
                pending[wrapped] = future
            while pending:
                if flush is not None:
                    await flush()
                done, _ = await asyncio.wait(
                    pending,
                    timeout=stream.deadline_remaining(),
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if not done:
                    raise stream.expire()
                for wrapped in done:
                    stream.collect(pending.pop(wrapped))

    async def _materialized_query(self, writer, stream, keep_alive):
        """Answer *stream* as one JSON body once every shard is folded
        in: a splice of fragments encoded where the SQL ran."""
        await self._drive(stream)
        result = stream.result
        status = 206 if result.partial else 200
        await self._respond(
            writer,
            status,
            JSON_CONTENT_TYPE,
            result_line(result, stream.request_id, stream.fragment),
            keep_alive=keep_alive,
        )
        return status, len(result.rows)

    async def _stream_query(self, writer, stream, spec):
        """Answer *stream* as chunked NDJSON: head, ``start`` event and
        the rows of every shard answered at open in one write; then
        rows per shard as each completes; a terminal ``end`` (or
        ``error``) event as the in-band status line.  A settled stream
        is the whole response in that one write."""
        first_byte = None
        rows_sent = 0
        flushed = 0  # how much of stream.folded is on the wire
        head = [
            self._head(200, NDJSON_CONTENT_TYPE, chunked=True),
            _chunk(ndjson_line(
                {
                    "event": "start",
                    "request_id": stream.request_id,
                    "shards": len(stream.targets),
                    "xpath": spec.xpath,
                }
            )),
        ]

        def shard_event(shard, answer) -> bytes:
            nonlocal rows_sent
            if answer is None:
                message = dict(stream.failures()).get(shard, "shard failed")
                return _chunk(ndjson_line(
                    {"event": "shard_error", "shard": shard,
                     "message": message}
                ))
            rows_sent += answer.row_count
            return _chunk(rows_event(shard, answer.fragment))

        async def flush(*last: bytes) -> None:
            nonlocal first_byte, flushed
            fresh = stream.folded[flushed:]
            flushed += len(fresh)
            await self._send(
                writer, *head, *(shard_event(*pair) for pair in fresh), *last
            )
            del head[:]
            if first_byte is None:
                first_byte = time.perf_counter()

        try:
            await self._drive(stream, flush)
        except ConnectionError:
            raise  # the client hung up: nobody left to tell
        except Exception as error:
            # Typed or not, the status line is in-band from here.
            await flush(
                _chunk(ndjson_line(
                    {"event": "error",
                     **error_body(error, stream.request_id)}
                )),
                _LAST_CHUNK,
            )
            return http_status(error), first_byte, rows_sent
        result = stream.result
        end_event = {
            "event": "end",
            "outcome": "partial" if result.partial else "ok",
            "rows": len(result.rows),
            "elapsed_seconds": result.elapsed_seconds,
        }
        if result.partial:
            end_event["failed_shards"] = [
                {"shard": shard, "message": message}
                for shard, message in result.failed_shards
            ]
        await flush(_chunk(ndjson_line(end_event)), _LAST_CHUNK)
        return 206 if result.partial else 200, first_byte, rows_sent

    # -- response plumbing --------------------------------------------------------

    @staticmethod
    def _head(
        status: int,
        content_type: str,
        length: int | None = None,
        chunked: bool = False,
        keep_alive: bool = False,
        extra_headers: dict | None = None,
    ) -> bytes:
        reason = _REASONS.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
        ]
        if chunked:
            lines.append("Transfer-Encoding: chunked")
            lines.append("Connection: close")
        else:
            lines.append(f"Content-Length: {length or 0}")
            lines.append(
                "Connection: keep-alive" if keep_alive
                else "Connection: close"
            )
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    async def _respond_json(
        self,
        writer,
        status: int,
        obj: dict,
        keep_alive: bool = False,
        extra_headers: dict | None = None,
    ) -> None:
        # compact JSON + trailing newline
        await self._respond(
            writer, status, JSON_CONTENT_TYPE, ndjson_line(obj),
            keep_alive=keep_alive, extra_headers=extra_headers,
        )

    async def _respond(
        self,
        writer,
        status: int,
        content_type: str,
        body: bytes,
        keep_alive: bool = False,
        extra_headers: dict | None = None,
    ) -> None:
        await self._send(
            writer,
            self._head(
                status,
                content_type,
                length=len(body),
                keep_alive=keep_alive,
                extra_headers=extra_headers,
            ),
            body,
        )

    async def _send(self, writer, *parts: bytes) -> None:
        """*parts* in one ``write``: one send, one client wake-up."""
        data = b"".join(parts)
        writer.write(data)
        await writer.drain()
        self.metrics.counter("gateway.bytes_sent").inc(len(data))

    # -- introspection ------------------------------------------------------------

    def snapshot(self) -> dict:
        """The ``/stats`` document: where the gateway sits, what it has
        served, and the quota table's occupancy."""
        return {
            "url": self.url,
            "store": {
                "scheme": self.store.scheme_name,
                "shards": len(self.store.pools),
                "documents": len(self.store.shard_map),
            },
            "quotas": self.quotas.stats(),
            "metrics": self.metrics.snapshot(prefix="gateway."),
        }
