"""Tests for the HTTP/JSON gateway: protocol, status mapping, quotas,
streaming, tracing, and the ops-plane integration."""

import asyncio
import http.client
import json
import os
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.analysis import XPathAnalyzer
from repro.errors import (
    DeadlineExceeded,
    DocumentNotFoundError,
    Overloaded,
    ProtocolError,
    ShardError,
    StorageError,
    XPathSyntaxError,
    error_payload,
    http_status,
)
from repro.obs.ops import parse_prometheus
from repro.obs.trace import Tracer
from repro.obs.top import render_snapshot
from repro.relational.database import Database
from repro.reliability import ShardFaultPolicy
from repro.serve import ShardedStore
from repro.serve.executor import ScatterStream
from repro.serve.gateway import ClientQuotas
from repro.serve.protocol import (
    parse_query_payload,
    parse_query_params,
)
from repro.xml import parse_document, parse_fragment
from repro.xml.dtd import parse_dtd
from repro.xpath import evaluate_nodes

from tests.conftest import BIB_XML, free_slots

BIB_DTD = """\
<!ELEMENT bib (book*, article*)>
<!ELEMENT book (title, author+, publisher?, price?)>
<!ATTLIST book year CDATA #REQUIRED id ID #IMPLIED>
<!ELEMENT article (title, author+)>
<!ATTLIST article year CDATA #REQUIRED id ID #IMPLIED>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (last, first?)>
<!ELEMENT publisher (#PCDATA)>
<!ELEMENT price (#PCDATA)>
<!ELEMENT last (#PCDATA)>
<!ELEMENT first (#PCDATA)>
"""

DOCS = 6


def _wait_for(predicate, timeout=5.0):
    """Spin until *predicate* is true.  The gateway lands metrics and
    wide events on the event loop *after* the response bytes reach the
    client, so observability assertions may race the loop by a hair."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def _open(tmp_path, name="gw", **kwargs):
    store = ShardedStore.open(
        str(tmp_path / name), scheme="interval", shards=3, **kwargs
    )
    doc_ids = [
        store.store_text(BIB_XML, name=f"bib-{i}") for i in range(DOCS)
    ]
    return store, doc_ids


def _get(url, expect_error=False):
    """GET returning ``(status, parsed_json)``."""
    try:
        with urllib.request.urlopen(url) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        if not expect_error:
            raise
        return error.code, json.loads(error.read())


def _post(url, payload, headers=None, expect_error=False):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        method="POST",
        headers=headers or {},
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        if not expect_error:
            raise
        return error.code, json.loads(error.read())


def _stream(url, payload):
    """POST a streaming query; returns the parsed NDJSON events
    (urllib undoes the chunked framing)."""
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(), method="POST"
    )
    with urllib.request.urlopen(request) as response:
        assert response.headers.get("Content-Type") == (
            "application/x-ndjson"
        )
        return [
            json.loads(line)
            for line in response.read().splitlines() if line
        ]


# -- the shared status table (satellite: one table, both servers) -------------


class TestStatusTable:
    def test_typed_errors_map_to_their_status(self):
        assert http_status(Overloaded("x")) == 429
        assert http_status(DeadlineExceeded("x")) == 504
        assert http_status(ShardError(1, ValueError("y"))) == 502
        assert http_status(ProtocolError("x")) == 400
        assert http_status(DocumentNotFoundError(7)) == 404
        assert http_status(XPathSyntaxError("x")) == 400
        assert http_status(StorageError("x")) == 500

    def test_unknown_errors_are_500(self):
        assert http_status(ValueError("x")) == 500
        assert http_status(RuntimeError("x")) == 500

    def test_subclasses_inherit_parent_status(self):
        class CustomShed(Overloaded):
            pass

        assert http_status(CustomShed("x")) == 429

    def test_payload_carries_typed_fields(self):
        payload = error_payload(Overloaded("x", in_flight=3, limit=3))
        assert payload["status"] == 429
        assert payload["error"] == "Overloaded"
        assert payload["in_flight"] == 3 and payload["limit"] == 3

        payload = error_payload(
            DeadlineExceeded("x", deadline_seconds=0.5, elapsed=0.7)
        )
        assert payload["deadline_seconds"] == 0.5
        assert payload["elapsed_seconds"] == 0.7

        payload = error_payload(ShardError(2, ValueError("y")))
        assert payload["shard"] == 2

        payload = error_payload(DocumentNotFoundError(11))
        assert payload["doc_id"] == 11 and payload["status"] == 404


# -- wire protocol ------------------------------------------------------------


class TestProtocol:
    def test_minimal_payload(self):
        spec = parse_query_payload({"xpath": "/bib/book"})
        assert spec.xpath == "/bib/book"
        assert spec.doc_id is None and not spec.stream

    def test_unknown_field_rejected(self):
        with pytest.raises(ProtocolError, match="unknown request field"):
            parse_query_payload({"xpath": "/a", "bogus": 1})

    def test_bad_values_rejected(self):
        with pytest.raises(ProtocolError, match="xpath"):
            parse_query_payload({"xpath": ""})
        with pytest.raises(ProtocolError, match="deadline"):
            parse_query_payload(
                {"xpath": "/a", "deadline_seconds": "soon"}
            )
        with pytest.raises(ProtocolError, match="deadline"):
            parse_query_payload({"xpath": "/a", "deadline_seconds": -1})
        with pytest.raises(ProtocolError, match="doc_id"):
            parse_query_payload({"xpath": "/a", "doc_id": "first"})
        with pytest.raises(ProtocolError, match="stream"):
            parse_query_payload({"xpath": "/a", "stream": "maybe"})
        with pytest.raises(
            ProtocolError, match="unknown request field.*read_from"
        ):
            parse_query_payload({"xpath": "/a", "read_from": "primary"})
        with pytest.raises(ProtocolError, match="JSON object"):
            parse_query_payload(["not", "a", "dict"])

    def test_get_aliases(self):
        spec = parse_query_params(
            {"xpath": "/a", "doc": "3", "deadline": "1.5", "stream": "1"},
            default_client="curl",
        )
        assert spec.doc_id == 3
        assert spec.deadline == 1.5
        assert spec.stream and spec.client == "curl"


# -- quotas -------------------------------------------------------------------


class TestClientQuotas:
    def test_refill_math(self):
        quotas = ClientQuotas(rate=2.0, burst=2.0)
        assert quotas.try_admit("a", now=0.0) is None
        assert quotas.try_admit("a", now=0.0) is None
        retry = quotas.try_admit("a", now=0.0)
        assert retry == pytest.approx(0.5)  # 1 token at 2/s
        # After the hinted wait, exactly one more token exists.
        assert quotas.try_admit("a", now=0.5) is None
        assert quotas.try_admit("a", now=0.5) is not None

    def test_clients_are_independent(self):
        quotas = ClientQuotas(rate=1.0, burst=1.0)
        assert quotas.try_admit("a", now=0.0) is None
        assert quotas.try_admit("a", now=0.0) is not None
        assert quotas.try_admit("b", now=0.0) is None

    def test_eviction_bounds_the_table(self):
        quotas = ClientQuotas(rate=1.0, burst=1.0, max_clients=2)
        quotas.try_admit("a", now=0.0)
        quotas.try_admit("b", now=1.0)
        quotas.try_admit("c", now=2.0)  # evicts "a" (stalest)
        assert quotas.stats()["clients"] == 2
        # "a" restarts with a full burst: admitted again.
        assert quotas.try_admit("a", now=2.0) is None

    def test_disabled_quota_admits_everything(self):
        quotas = ClientQuotas(rate=None)
        for _ in range(100):
            assert quotas.try_admit("a") is None

    def test_invalid_parameters(self):
        with pytest.raises(StorageError):
            ClientQuotas(rate=0)
        with pytest.raises(StorageError):
            ClientQuotas(rate=5.0, burst=0.5)


# -- end-to-end over real HTTP ------------------------------------------------


class TestGatewayQueries:
    def test_materialized_matches_store(self, tmp_path):
        store, _ = _open(tmp_path)
        with store:
            gateway = store.serve_gateway()
            status, body = _post(
                gateway.url + "/query", {"xpath": "/bib/book/title"}
            )
            expected = store.query_all("/bib/book/title")
            assert status == 200
            assert body["row_count"] == len(expected.rows)
            assert [tuple(r) for r in body["rows"]] == list(expected.rows)
            assert body["shards_queried"] == 3
            assert not body["partial"]
            assert body["request_id"].startswith("req-")

    def test_doc_scoped_query(self, tmp_path):
        store, doc_ids = _open(tmp_path)
        with store:
            gateway = store.serve_gateway()
            status, body = _get(
                gateway.url
                + f"/query?xpath=/bib/book/title&doc={doc_ids[0]}"
            )
            assert status == 200
            assert body["shards_queried"] == 1
            assert body["row_count"] == len(
                store.query_pres(doc_ids[0], "/bib/book/title")
            )

    def test_streaming_matches_materialized(self, tmp_path):
        store, _ = _open(tmp_path)
        with store:
            gateway = store.serve_gateway()
            events = _stream(
                gateway.url + "/query",
                {"xpath": "/bib/book/title", "stream": True},
            )
            kinds = [event["event"] for event in events]
            assert kinds[0] == "start" and kinds[-1] == "end"
            assert events[0]["shards"] == 3
            assert events[0]["request_id"].startswith("req-")
            streamed = sorted(
                tuple(row)
                for event in events if event["event"] == "rows"
                for row in event["rows"]
            )
            expected = store.query_all("/bib/book/title")
            assert streamed == list(expected.rows)
            assert events[-1]["outcome"] == "ok"
            assert events[-1]["rows"] == len(expected.rows)

    def test_a_stream_delivers_fast_shards_before_a_stalled_one(
        self, tmp_path
    ):
        """What streaming is for, as a fault-policy fact instead of a
        latency statistic: with one shard stalled and nothing cached,
        the other shards' ``rows`` chunks reach the client well before
        the stall elapses and only ``end`` waits for it, while the
        materialized response's first byte waits for the slowest
        shard.  A gateway that buffered the stream until the last shard
        fails the first assertion."""
        stall = 0.3

        def timed(name, payload):
            """One request against a fresh (so uncached) store with
            shard 1 stalled: ``(seconds to the response head, [(seconds,
            body line), ...])``."""
            policy = ShardFaultPolicy()
            store, _ = _open(tmp_path, name, fault_policy=policy)
            with store:
                gateway = store.serve_gateway()
                policy.stall_shard(1, stall)
                connection = http.client.HTTPConnection(
                    "127.0.0.1", gateway.port, timeout=10
                )
                try:
                    started = time.monotonic()
                    connection.request(
                        "POST", "/query", body=json.dumps(payload)
                    )
                    response = connection.getresponse()
                    head = time.monotonic() - started
                    lines = [
                        (time.monotonic() - started, json.loads(line))
                        for line in response
                    ]
                finally:
                    connection.close()
                assert _wait_for(
                    lambda: store.metrics.gauge("serve.in_flight").value
                    == 0
                )
                assert free_slots(store.executor) == (
                    store.executor.max_in_flight
                )
            return head, lines

        head, events = timed(
            "streamed", {"xpath": "/bib/book/title", "stream": True}
        )
        chunks = [(at, e) for at, e in events if e["event"] == "rows"]
        assert len(chunks) == 3 and chunks[-1][1]["shard"] == 1
        assert head < stall / 2
        assert all(at < stall / 2 for at, _ in chunks[:2])
        assert chunks[-1][0] >= stall and events[-1][0] >= stall
        assert events[-1][1]["event"] == "end"
        assert events[-1][1]["outcome"] == "ok"

        head, (only,) = timed("materialized", {"xpath": "/bib/book/title"})
        assert head >= stall
        assert sorted(
            tuple(row) for _, e in chunks for row in e["rows"]
        ) == [tuple(row) for row in only[1]["rows"]]
        assert only[1]["row_count"] == events[-1][1]["rows"] > 0

    def test_bad_requests(self, tmp_path):
        store, _ = _open(tmp_path)
        with store:
            gateway = store.serve_gateway()
            status, body = _get(
                gateway.url + "/query?xpath=///", expect_error=True
            )
            assert status == 400
            assert body["error"] == "XPathSyntaxError"
            status, body = _post(
                gateway.url + "/query",
                {"xpath": "/bib", "bogus": 1},
                expect_error=True,
            )
            assert status == 400 and body["error"] == "ProtocolError"
            status, body = _post(
                gateway.url + "/query",
                {"xpath": "/bib", "read_from": "primary"},
                expect_error=True,
            )
            assert status == 400 and body["error"] == "ProtocolError"
            assert "unknown request field(s): read_from" in body["message"]
            status, body = _get(
                gateway.url + "/query?xpath=/bib&doc=9999",
                expect_error=True,
            )
            assert status == 404
            assert body["error"] == "DocumentNotFoundError"
            assert body["doc_id"] == 9999
            status, body = _get(
                gateway.url + "/nowhere", expect_error=True
            )
            assert status == 404 and body["error"] == "NotFound"

    def test_healthz_and_stats(self, tmp_path):
        store, _ = _open(tmp_path)
        with store:
            gateway = store.serve_gateway(quota_rate=100.0)
            status, health = _get(gateway.url + "/healthz")
            assert status == 200 and health["status"] == "ok"
            status, stats = _get(gateway.url + "/stats")
            assert status == 200
            assert stats["url"] == gateway.url
            assert stats["store"]["shards"] == 3
            assert stats["quotas"]["rate_per_second"] == 100.0

    def test_unsatisfiable_short_circuit(self, tmp_path):
        store, _ = _open(tmp_path)
        with store:
            analyzer = XPathAnalyzer.from_dtd(parse_dtd(BIB_DTD))
            gateway = store.serve_gateway(analyzer=analyzer)
            before = store.metrics.counter("serve.queries").value
            status, body = _get(
                gateway.url + "/query?xpath=/bib/magazine/title"
            )
            assert status == 200
            assert body["short_circuit"] and body["row_count"] == 0
            assert body["shards_queried"] == 0
            # The executor never saw the query: zero SQL, zero slots.
            assert store.metrics.counter("serve.queries").value == before
            # A satisfiable query still executes normally.
            status, body = _get(
                gateway.url + "/query?xpath=/bib/book/title"
            )
            assert status == 200 and body["row_count"] > 0


class TestGatewayAdmission:
    def test_quota_429_with_retry_after(self, tmp_path):
        store, _ = _open(tmp_path)
        with store:
            gateway = store.serve_gateway(
                quota_rate=0.5, quota_burst=1.0
            )
            headers = {"X-Client-Id": "hammer"}
            status, _ = _post(
                gateway.url + "/query", {"xpath": "/bib"}, headers
            )
            assert status == 200
            request = urllib.request.Request(
                gateway.url + "/query",
                data=json.dumps({"xpath": "/bib"}).encode(),
                method="POST",
                headers=headers,
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            error = excinfo.value
            assert error.code == 429
            assert int(error.headers["Retry-After"]) >= 1
            body = json.loads(error.read())
            assert body["error"] == "Overloaded"
            assert body["status"] == 429
            assert "quota" in body["message"]
            rejections = store.metrics.counter(
                "gateway.quota_rejections"
            ).value
            assert rejections == 1
            # A different client is not affected.
            status, _ = _post(
                gateway.url + "/query", {"xpath": "/bib"},
                {"X-Client-Id": "polite"},
            )
            assert status == 200

    def test_executor_gate_429(self, tmp_path):
        store, _ = _open(tmp_path, max_in_flight=2)
        with store:
            gateway = store.serve_gateway()
            # Drain the global admission gate by hand: the next HTTP
            # request must shed with the executor's own Overloaded.
            assert store.executor._gate.acquire(blocking=False)
            assert store.executor._gate.acquire(blocking=False)
            try:
                status, body = _get(
                    gateway.url + "/query?xpath=/bib",
                    expect_error=True,
                )
                assert status == 429
                assert body["error"] == "Overloaded"
                assert body["limit"] == 2
            finally:
                store.executor._gate.release()
                store.executor._gate.release()
            status, _ = _get(gateway.url + "/query?xpath=/bib")
            assert status == 200

    def test_executor_gate_429_keeps_one_request_id(self, tmp_path):
        """A request shed at the executor's gate on the materialized
        route is still one request: its ``http`` and ``query`` wide
        events carry the same id."""
        store, _ = _open(tmp_path, max_in_flight=1)
        with store:
            gateway = store.serve_gateway()
            log = store.executor.request_log
            assert store.executor._gate.acquire(blocking=False)
            try:
                status, body = _post(
                    gateway.url + "/query", {"xpath": "/bib"},
                    expect_error=True,
                )
            finally:
                store.executor._gate.release()
            assert status == 429
            assert _wait_for(
                lambda: any(e["event"] == "http" for e in log.tail())
            )
            (http_event,) = [e for e in log.tail() if e["event"] == "http"]
            (query_event,) = [
                e for e in log.tail() if e["event"] == "query"
            ]
            assert http_event["status"] == 429
            assert query_event["outcome"] == "overloaded"
            assert (
                http_event["request_id"]
                == query_event["request_id"]
                == body["request_id"]
            )

    def test_deadline_504(self, tmp_path):
        store, _ = _open(tmp_path)
        with store:
            gateway = store.serve_gateway()
            status, body = _post(
                gateway.url + "/query",
                {"xpath": "/bib/book", "deadline_seconds": 1e-6},
                expect_error=True,
            )
            assert status == 504
            assert body["error"] == "DeadlineExceeded"
            assert body["deadline_seconds"] == 1e-6

    def test_default_deadline_applies(self, tmp_path):
        store, _ = _open(tmp_path, default_deadline=1e-6)
        with store:
            gateway = store.serve_gateway()
            status, body = _get(
                gateway.url + "/query?xpath=/bib", expect_error=True
            )
            assert status == 504 and body["error"] == "DeadlineExceeded"


class TestGatewayDegradedModes:
    def test_partial_mode_is_206(self, tmp_path):
        policy = ShardFaultPolicy()
        store, _ = _open(
            tmp_path, on_shard_error="partial", fault_policy=policy
        )
        with store:
            gateway = store.serve_gateway()
            policy.fail_shard(1)
            status, body = _get(
                gateway.url + "/query?xpath=/bib/book/title",
                expect_error=True,
            )
            assert status == 206
            assert body["partial"]
            assert [f["shard"] for f in body["failed_shards"]] == [1]
            assert body["row_count"] > 0

    def test_partial_mode_streams_shard_errors(self, tmp_path):
        policy = ShardFaultPolicy()
        store, _ = _open(
            tmp_path, on_shard_error="partial", fault_policy=policy
        )
        with store:
            gateway = store.serve_gateway()
            policy.fail_shard(1)
            events = _stream(
                gateway.url + "/query",
                {"xpath": "/bib/book/title", "stream": True},
            )
            kinds = [event["event"] for event in events]
            assert "shard_error" in kinds
            shard_errors = [
                e for e in events if e["event"] == "shard_error"
            ]
            assert [e["shard"] for e in shard_errors] == [1]
            assert events[-1]["event"] == "end"
            assert events[-1]["outcome"] == "partial"
            assert events[-1]["failed_shards"][0]["shard"] == 1
            assert events[-1]["rows"] > 0

    def test_fail_mode_is_502(self, tmp_path):
        policy = ShardFaultPolicy()
        store, _ = _open(
            tmp_path, on_shard_error="fail", fault_policy=policy
        )
        with store:
            gateway = store.serve_gateway()
            policy.fail_shard(0)
            status, body = _get(
                gateway.url + "/query?xpath=/bib/book/title",
                expect_error=True,
            )
            assert status == 502
            assert body["error"] == "ShardError"
            assert body["shard"] == 0


# -- wire robustness: malformed requests over a raw socket --------------------


class TestWireRobustness:
    @staticmethod
    def _raw(gateway, request: bytes) -> bytes:
        """Send *request* raw and read to EOF (the error path and the
        streaming path both close the connection)."""
        raw = socket.create_connection(
            ("127.0.0.1", gateway.port), timeout=5
        )
        try:
            raw.sendall(request)
            data = b""
            while True:
                chunk = raw.recv(4096)
                if not chunk:
                    break
                data += chunk
        finally:
            raw.close()
        return data

    def test_non_numeric_content_length_is_400(self, tmp_path):
        store, _ = _open(tmp_path)
        with store:
            gateway = store.serve_gateway()
            data = self._raw(
                gateway,
                b"POST /query HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: banana\r\n\r\n",
            )
            assert data.startswith(b"HTTP/1.1 400")
            body = json.loads(data.partition(b"\r\n\r\n")[2])
            assert body["error"] == "ProtocolError"
            assert "Content-Length" in body["message"]

    def test_negative_content_length_is_400(self, tmp_path):
        store, _ = _open(tmp_path)
        with store:
            gateway = store.serve_gateway()
            data = self._raw(
                gateway,
                b"GET /query?xpath=/bib HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: -7\r\n\r\n",
            )
            assert data.startswith(b"HTTP/1.1 400")
            body = json.loads(data.partition(b"\r\n\r\n")[2])
            assert body["error"] == "ProtocolError"

    def test_streamed_short_circuit_closes_connection(self, tmp_path):
        """A short-circuited stream is chunked with Connection: close;
        the handler must actually close instead of waiting for reuse."""
        store, _ = _open(tmp_path)
        with store:
            analyzer = XPathAnalyzer.from_dtd(parse_dtd(BIB_DTD))
            gateway = store.serve_gateway(analyzer=analyzer)
            payload = json.dumps(
                {"xpath": "/bib/magazine", "stream": True}
            ).encode()
            data = self._raw(
                gateway,
                b"POST /query HTTP/1.1\r\nHost: x\r\n"
                b"Content-Type: application/json\r\n"
                + f"Content-Length: {len(payload)}\r\n\r\n".encode()
                + payload,
            )
            head = data.partition(b"\r\n\r\n")[0]
            assert head.startswith(b"HTTP/1.1 200")
            assert b"Connection: close" in head
            assert b'"short_circuit"' in data


    # -- the request head and body share one idle timeout ----------------------

    @staticmethod
    def _loop_tasks(gateway) -> int:
        """Tasks alive on the gateway's loop (besides the probe)."""
        async def count():
            return len(asyncio.all_tasks()) - 1

        return asyncio.run_coroutine_threadsafe(
            count(), gateway._loop
        ).result(timeout=5)

    def _settled(self, store, gateway, idle_tasks) -> bool:
        return _wait_for(
            lambda: store.metrics.gauge("gateway.connections").value == 0
            and self._loop_tasks(gateway) == idle_tasks
        )

    def test_truncated_body_closes_without_a_leak(self, tmp_path):
        """``Content-Length: 100``, ten bytes, then EOF: the connection
        just closes — no slot, no task, no response to a half request."""
        store, _ = _open(tmp_path)
        with store:
            gateway = store.serve_gateway()
            idle_tasks = self._loop_tasks(gateway)
            data = self._raw_half_closed(
                gateway,
                b"POST /query HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 100\r\n\r\n" + b"x" * 10,
            )
            assert data == b""
            assert self._settled(store, gateway, idle_tasks)
            assert store.metrics.gauge("serve.in_flight").value == 0
            status, _ = _post(gateway.url + "/query", {"xpath": "/bib/book"})
            assert status == 200

    @staticmethod
    def _raw_half_closed(gateway, request: bytes) -> bytes:
        raw = socket.create_connection(
            ("127.0.0.1", gateway.port), timeout=5
        )
        try:
            raw.sendall(request)
            raw.shutdown(socket.SHUT_WR)
            data = b""
            while True:
                chunk = raw.recv(4096)
                if not chunk:
                    return data
                data += chunk
        finally:
            raw.close()

    @pytest.mark.parametrize(
        "sent",
        [
            b"POST /query HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 100\r\n\r\n" + b"x" * 10,
            b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Le",
        ],
        ids=["slow-loris-body", "slow-loris-head"],
    )
    def test_a_stalled_request_is_dropped_at_the_idle_timeout(
        self, tmp_path, sent
    ):
        """The sender stalls with the connection open.  The body read
        used to have no timeout at all and held the connection forever."""
        store, _ = _open(tmp_path)
        with store:
            gateway = store.serve_gateway(idle_timeout=0.3)
            idle_tasks = self._loop_tasks(gateway)
            raw = socket.create_connection(
                ("127.0.0.1", gateway.port), timeout=5
            )
            try:
                raw.sendall(sent)
                started = time.monotonic()
                assert raw.recv(4096) == b""  # closed, nothing said
                assert time.monotonic() - started < 3.0
            finally:
                raw.close()
            assert self._settled(store, gateway, idle_tasks)
            assert store.metrics.gauge("serve.in_flight").value == 0

    def test_over_limit_head_is_400(self, tmp_path):
        store, _ = _open(tmp_path)
        with store:
            gateway = store.serve_gateway()
            for request in (
                b"GET /query?xpath=/" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
                b"GET /stats HTTP/1.1\r\nX-Pad: " + b"a" * 70_000
                + b"\r\n\r\n",
            ):
                data = self._raw(gateway, request)
                assert data.startswith(b"HTTP/1.1 400")
                body = json.loads(data.partition(b"\r\n\r\n")[2])
                assert body["error"] == "ProtocolError"
                assert "too long" in body["message"]

    def test_too_many_headers_is_400(self, tmp_path):
        store, _ = _open(tmp_path)
        with store:
            gateway = store.serve_gateway()
            padding = b"".join(
                b"X-Pad-%d: 1\r\n" % n for n in range(101)
            )
            data = self._raw(
                gateway, b"GET /stats HTTP/1.1\r\n" + padding + b"\r\n"
            )
            assert data.startswith(b"HTTP/1.1 400")
            body = json.loads(data.partition(b"\r\n\r\n")[2])
            assert "too many request headers" in body["message"]

    def test_malformed_request_line_is_400(self, tmp_path):
        store, _ = _open(tmp_path)
        with store:
            gateway = store.serve_gateway()
            data = self._raw(gateway, b"NONSENSE\r\nHost: x\r\n\r\n")
            assert data.startswith(b"HTTP/1.1 400")
            body = json.loads(data.partition(b"\r\n\r\n")[2])
            assert "malformed request line" in body["message"]

    def test_http_1_0_closes_unless_asked_to_keep_alive(self, tmp_path):
        """An HTTP/1.0 client reads to EOF: without ``Connection:
        keep-alive`` the response must be followed by a close, not by
        an ``idle_timeout`` wait."""
        store, _ = _open(tmp_path)
        with store:
            gateway = store.serve_gateway()
            started = time.monotonic()
            for path in (b"/query?xpath=/bib", b"/healthz"):
                data = self._raw(
                    gateway, b"GET " + path + b" HTTP/1.0\r\nHost: x\r\n\r\n"
                )
                head, _, body = data.partition(b"\r\n\r\n")
                assert b"200 OK" in head and b"Connection: close" in head
                assert json.loads(body)
            assert time.monotonic() - started < 5.0  # idle_timeout is 30
            # The other direction: asked to, a 1.0 connection is reused.
            raw = socket.create_connection(
                ("127.0.0.1", gateway.port), timeout=5
            )
            try:
                for _ in range(2):
                    raw.sendall(
                        b"GET /query?xpath=/bib HTTP/1.0\r\n"
                        b"Connection: keep-alive\r\n\r\n"
                    )
                    data = b""
                    while not data.endswith(b"}\n"):
                        data += raw.recv(4096)
                    assert b"Connection: keep-alive" in data
            finally:
                raw.close()

    def test_chunked_request_body_is_refused_once(self, tmp_path):
        """``Transfer-Encoding: chunked`` used to be read as an empty
        body and its chunk bytes as a second request: two 400s."""
        store, _ = _open(tmp_path)
        with store:
            gateway = store.serve_gateway()
            chunk = json.dumps({"xpath": "/bib"}).encode()
            data = self._raw(
                gateway,
                b"POST /query HTTP/1.1\r\nHost: x\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                + b"%x\r\n%b\r\n0\r\n\r\n" % (len(chunk), chunk),
            )
            assert data.count(b"HTTP/1.1 ") == 1
            head, _, body = data.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 400")
            assert b"Connection: close" in head
            payload = json.loads(body)
            assert payload["error"] == "ProtocolError"
            assert "Transfer-Encoding" in payload["message"]
            assert store.metrics.gauge("serve.in_flight").value == 0
            assert "serve.queries" not in (
                store.metrics.snapshot()["counters"]
            )

    def test_a_response_is_one_write(self, tmp_path):
        """Head and body leave in a single ``write``: one send, one
        client wake-up per response."""
        store, _ = _open(tmp_path)
        with store:
            gateway = store.serve_gateway()
            writer = RecordingWriter()
            asyncio.run(gateway._respond_json(writer, 200, {"ok": True}))
            (sent,) = writer.writes
            head, _, body = sent.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 200")
            assert json.loads(body) == {"ok": True}
            assert f"Content-Length: {len(body)}".encode() in head

    def test_syntax_check_is_remembered_but_errors_are_not(
        self, tmp_path, tokenized
    ):
        store, _ = _open(tmp_path)
        with store:
            gateway = store.serve_gateway()
            for _ in range(3):
                status, _ = _post(
                    gateway.url + "/query", {"xpath": "/bib/book"}
                )
                assert status == 200
                status, body = _post(
                    gateway.url + "/query", {"xpath": "/bib/book["},
                    expect_error=True,
                )
                assert status == 400
                assert body["error"] == "XPathSyntaxError"
        # The good string parses once; the bad one parses each time.
        assert tokenized == ["/bib/book"] + ["/bib/book["] * 3

    def test_a_cold_scatter_parses_once(self, tmp_path, tokenized):
        # The gateway's syntax check and every shard's translator read
        # the one per-process parse memo: a cold doc-less request on
        # four shards tokenizes its XPath once, not once per shard more.
        store = ShardedStore.open(
            str(tmp_path / "four"), scheme="interval", shards=4
        )
        for i in range(8):  # every shard holds a document
            store.store_text(BIB_XML, name=f"bib-{i}")
        with store:
            gateway = store.serve_gateway()
            status, body = _post(
                gateway.url + "/query", {"xpath": "/bib/book/author"}
            )
            assert status == 200 and body["row_count"]
            assert body["shards_queried"] == 4
            assert all(
                pool.stats()["plan_cache"]["misses"] == 1
                for pool in store.pools.values()
            )
        assert tokenized == ["/bib/book/author"]



# -- tracing + wide events ----------------------------------------------------


class TestGatewayObservability:
    def test_one_trace_tree_per_request(self, tmp_path):
        store, _ = _open(tmp_path, tracer=Tracer(enabled=True))
        with store:
            gateway = store.serve_gateway()
            _post(gateway.url + "/query", {"xpath": "/bib/book/title"})
            roots = [
                span for span in store.tracer.roots
                if span.name == "gateway.request"
            ]
            assert len(roots) == 1
            root = roots[0]
            names = [span.name for span in root.walk()]
            assert "gateway.parse" in names
            assert "gateway.admit" in names
            assert "serve.query" in names
            assert "serve.shard" in names
            # Executor spans joined the gateway tree instead of
            # detaching into their own roots.
            assert not any(
                span.attributes.get("detached")
                for span in root.walk()
            )
            serve_roots = [
                span for span in store.tracer.roots
                if span.name == "serve.query"
            ]
            assert serve_roots == []

    def test_streamed_request_traces_one_tree(self, tmp_path):
        store, _ = _open(tmp_path, tracer=Tracer(enabled=True))
        with store:
            gateway = store.serve_gateway()
            _stream(
                gateway.url + "/query",
                {"xpath": "/bib/book/title", "stream": True},
            )
            roots = [
                span for span in store.tracer.roots
                if span.name == "gateway.request"
            ]
            assert len(roots) == 1
            names = [span.name for span in roots[0].walk()]
            assert "serve.query" in names and "serve.shard" in names

    def test_http_wide_events_share_request_id(self, tmp_path):
        store, _ = _open(tmp_path)
        with store:
            gateway = store.serve_gateway()
            _post(gateway.url + "/query", {"xpath": "/bib/book/title"})
            assert _wait_for(
                lambda: any(
                    e["event"] == "http"
                    for e in store.executor.request_log.tail(10)
                )
            )
            events = store.executor.request_log.tail(10)
            http_events = [
                e for e in events if e["event"] == "http"
            ]
            query_events = [
                e for e in events if e["event"] == "query"
            ]
            assert len(http_events) == 1
            assert len(query_events) == 1
            # The gateway's request id flows into the executor's wide
            # event: one id connects HTTP access log and query record.
            assert (
                http_events[0]["request_id"]
                == query_events[0]["request_id"]
            )
            assert http_events[0]["status"] == 200
            assert http_events[0]["route"] == "query"
            assert http_events[0]["elapsed_seconds"] > 0

    def test_gateway_metrics_populate(self, tmp_path):
        store, _ = _open(tmp_path)
        with store:
            gateway = store.serve_gateway()
            _post(gateway.url + "/query", {"xpath": "/bib"})
            _get(gateway.url + "/healthz")
            assert _wait_for(
                lambda: store.metrics.counter("gateway.requests").value
                == 2
            )
            snapshot = store.metrics.snapshot(prefix="gateway.")
            assert snapshot["counters"]["gateway.requests"] == 2
            assert snapshot["counters"]["gateway.status.200"] == 2
            assert (
                "gateway.route.query.seconds"
                in snapshot["histograms"]
            )

    def test_top_renders_gateway_section(self, tmp_path):
        store, _ = _open(tmp_path)
        with store:
            gateway = store.serve_gateway(quota_rate=1.0, quota_burst=1.0)
            headers = {"X-Client-Id": "top-test"}
            _post(gateway.url + "/query", {"xpath": "/bib"}, headers)
            _post(
                gateway.url + "/query", {"xpath": "/bib"}, headers,
                expect_error=True,
            )  # quota rejection
            assert _wait_for(
                lambda: store.metrics.counter(
                    "gateway.status.429"
                ).value == 1
            )
            status, snapshot = _get(gateway.url + "/snapshot")
            assert status == 200
            frame = render_snapshot(snapshot)
            assert "gateway (" in frame
            assert "query" in frame
            assert "quota_rejections=1" in frame
            assert "statuses:" in frame
            assert "429=1" in frame


# -- satellite: concurrent /metrics scrapes during gateway load ---------------


class TestConcurrentScrapes:
    def test_metrics_scrapes_during_gateway_queries(self, tmp_path):
        """Hammer ``/metrics`` from several threads while streamed and
        materialized gateway queries are in flight.  Every scrape must
        stay parseable and the run must stay lock-order clean (the CI
        concurrency job reruns this under ``XMLREL_LOCK_HARNESS=1``)."""
        store, _ = _open(tmp_path)
        with store:
            gateway = store.serve_gateway()
            stop = threading.Event()
            failures: list[str] = []
            parsed_counts: list[int] = []

            def scraper():
                while not stop.is_set():
                    try:
                        with urllib.request.urlopen(
                            gateway.url + "/metrics", timeout=5
                        ) as response:
                            text = response.read().decode()
                        parsed = parse_prometheus(text)
                        parsed_counts.append(len(parsed["samples"]))
                    except Exception as error:  # surfaced below
                        failures.append(
                            f"{type(error).__name__}: {error}"
                        )
                        return

            threads = [
                threading.Thread(
                    target=scraper, name=f"scraper-{i}", daemon=True
                )
                for i in range(3)
            ]
            for thread in threads:
                thread.start()
            try:
                for i in range(10):
                    _post(
                        gateway.url + "/query",
                        {
                            "xpath": "/bib/book/title",
                            "stream": i % 2 == 0,
                        },
                    ) if i % 2 else _stream(
                        gateway.url + "/query",
                        {"xpath": "/bib/book/title", "stream": True},
                    )
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=10)
            assert not failures, failures
            assert parsed_counts and all(n > 0 for n in parsed_counts)
            # Gateway series made it into the exposition.
            with urllib.request.urlopen(
                gateway.url + "/metrics", timeout=5
            ) as response:
                text = response.read().decode()
            parsed = parse_prometheus(text)
            names = {sample["name"] for sample in parsed["samples"]}
            assert "xmlrel_gateway_requests_total" in names


# -- one HTTP stack: the ops documents are routes of the gateway --------------

OPS_PATHS = ("/metrics", "/snapshot", "/healthz", "/stats")


def _listening_inodes():
    """Inodes of this process's listening TCP sockets (Linux /proc)."""
    mine = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue  # closed while we were listing
        if target.startswith("socket:["):
            mine.add(target[len("socket:["):-1])
    listening = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        if not os.path.exists(table):
            continue
        with open(table, encoding="ascii") as handle:
            next(handle)
            for line in handle:
                fields = line.split()
                if fields[3] == "0A":  # TCP_LISTEN
                    listening.add(fields[9])
    return mine & listening


def _raiser(error):
    def raises(*args, **kwargs):
        raise error

    return raises


class TestOpsRoutes:
    """What the stand-alone ops server gave for free, kept by the
    gateway: isolation from query load, scrapes that do not pollute
    what they report, and failures that never take the endpoint down."""

    def test_ops_routes_answer_with_every_query_worker_wedged(
        self, tmp_path
    ):
        """The pool every query read lands on — the executor's, the
        process's only one — is full of stuck work."""
        store, _ = _open(tmp_path)
        with store:
            gateway = store.serve_gateway()
            release = threading.Event()
            threads = store.executor._threads
            workers = threads._max_workers
            wedged = [
                threads.submit(release.wait, 30) for _ in range(workers)
            ]
            try:
                assert _wait_for(
                    lambda: sum(
                        thread.name.startswith("xmlrel-serve")
                        for thread in threading.enumerate()
                    ) == workers
                )
                for path in OPS_PATHS:
                    with urllib.request.urlopen(
                        gateway.url + path, timeout=5
                    ) as response:
                        assert response.status == 200
                        assert response.read()
                assert not any(future.done() for future in wedged)
            finally:
                release.set()

    def test_ops_documents_are_built_off_the_loop_and_the_worker_pool(
        self, tmp_path
    ):
        """No sqlite call (health probes, shard counts) and no
        registry / request-log read runs on the event-loop thread — or
        on a query worker."""
        store, _ = _open(tmp_path)
        with store:
            gateway = store.serve_gateway()
            log = store.executor.request_log
            seen: dict[str, set] = {}

            def recording(name, fn):
                def wrapper(*args, **kwargs):
                    seen.setdefault(name, set()).add(
                        threading.current_thread()
                    )
                    return fn(*args, **kwargs)

                return wrapper

            for owner, name in (
                (store, "health"),
                (store, "facts"),
                (store, "shard_counts"),
                (store.metrics, "snapshot"),
                (store.metrics, "windows_snapshot"),
                (log, "stats"),
                (log, "tail"),
            ):
                setattr(owner, name, recording(name, getattr(owner, name)))
            for pool in store.pools.values():
                pool.connection = recording("connection", pool.connection)
            for path in OPS_PATHS:
                with urllib.request.urlopen(
                    gateway.url + path, timeout=5
                ) as response:
                    assert response.status == 200
            assert set(seen) == {
                "health", "facts", "shard_counts", "snapshot",
                "windows_snapshot", "stats", "tail", "connection",
            }
            threads = set().union(*seen.values())
            assert gateway._thread not in threads
            assert threading.current_thread() not in threads
            assert not any(
                thread.name.startswith(("xmlrel-gateway", "xmlrel-serve"))
                for thread in threads
            )

    def test_scrapes_do_not_pollute_what_they_report(self, tmp_path):
        """N scrapes: counted per route like every request, but no
        ``http`` wide event, no quota token, no admission slot."""
        store, _ = _open(tmp_path)
        with store:
            # One token per client, ever: a scrape that took one would
            # turn its successor into a 429.
            gateway = store.serve_gateway(
                quota_rate=0.001, quota_burst=1.0
            )
            log = store.executor.request_log
            _post(gateway.url + "/query", {"xpath": "/bib/book/title"})
            assert _wait_for(
                lambda: any(e["event"] == "http" for e in log.tail())
            )
            emitted = log.stats()["emitted"]
            tail = log.tail()
            in_flight = store.metrics.gauge("serve.in_flight")
            high_water = in_flight.high_water
            queries = store.metrics.counter_value("serve.queries")
            rounds = 5
            for _ in range(rounds):
                for path in OPS_PATHS + ("/nowhere",):
                    try:
                        with urllib.request.urlopen(
                            gateway.url + path, timeout=5
                        ) as response:
                            assert response.status == 200
                    except urllib.error.HTTPError as error:
                        assert (path, error.code) == ("/nowhere", 404)
            assert _wait_for(
                lambda: store.metrics.counter_value("gateway.requests")
                == 1 + 5 * rounds
            )
            assert log.stats()["emitted"] == emitted
            assert log.tail() == tail
            assert gateway.quotas.stats()["clients"] == 1  # the POST's
            assert store.metrics.counter_value(
                "gateway.quota_rejections"
            ) == 0
            assert in_flight.value == 0
            assert in_flight.high_water == high_water
            assert store.metrics.counter_value("serve.queries") == queries
            histograms = store.metrics.snapshot(prefix="gateway.route.")[
                "histograms"
            ]
            for route in ("metrics", "snapshot", "healthz", "stats", "other"):
                assert histograms[f"gateway.route.{route}.seconds"][
                    "count"
                ] == rounds
            assert store.metrics.counter_value(
                "gateway.status.200"
            ) == 1 + 4 * rounds
            assert store.metrics.counter_value(
                "gateway.status.404"
            ) == rounds

    def test_a_failing_ops_route_is_typed_on_a_reusable_connection(
        self, tmp_path
    ):
        """Regression (failed at the parent: ``RemoteDisconnected``): a
        raising health probe is a 503 health document, a raising
        registry or request log a typed JSON 500 — each counted, each
        on a connection that goes on to serve a query."""
        store, _ = _open(tmp_path)
        with store:
            gateway = store.serve_gateway()
            connection = http.client.HTTPConnection(
                "127.0.0.1", gateway.port, timeout=5
            )

            def get(path):
                connection.request("GET", path)
                response = connection.getresponse()
                return response.status, json.loads(response.read())

            try:
                get("/healthz")
                sock = connection.sock
                store.health = _raiser(RuntimeError("probe died"))
                assert get("/healthz") == (
                    503,
                    {"status": "error",
                     "error": "RuntimeError: probe died"},
                )
                # /snapshot reports the dead probe instead of dying.
                status, snapshot = get("/snapshot")
                assert status == 200
                assert snapshot["health"]["status"] == "error"

                store.metrics.snapshot = _raiser(
                    RuntimeError("registry died")
                )
                for path in ("/metrics", "/snapshot", "/stats"):
                    status, body = get(path)
                    assert status == 500
                    assert body == {
                        "error": "RuntimeError",
                        "message": "registry died",
                        "status": 500,
                    }
                del store.metrics.snapshot

                store.executor.request_log.tail = _raiser(
                    StorageError("log died")
                )
                status, body = get("/snapshot")
                assert (status, body["error"]) == (500, "StorageError")

                connection.request(
                    "POST", "/query",
                    body=json.dumps({"xpath": "/bib/book/title"}),
                )
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["row_count"] > 0
                assert connection.sock is sock
            finally:
                connection.close()
            assert _wait_for(
                lambda: store.metrics.counter_value("gateway.requests")
                == 8
            )
            assert store.metrics.counter_value("gateway.status.503") == 1
            assert store.metrics.counter_value("gateway.status.500") == 4
            assert store.metrics.gauge(
                "gateway.connections"
            ).high_water == 1

    def test_every_route_down_one_keep_alive_connection(self, tmp_path):
        store, _ = _open(tmp_path)
        with store:
            gateway = store.serve_gateway()
            connection = http.client.HTTPConnection(
                "127.0.0.1", gateway.port, timeout=5
            )
            try:
                for path in OPS_PATHS:
                    connection.request("GET", path)
                    response = connection.getresponse()
                    body = response.read()
                    assert response.status == 200
                    assert response.getheader("Connection") == "keep-alive"
                    if path == "/metrics":
                        assert parse_prometheus(body.decode())["samples"]
                    else:
                        assert json.loads(body)
                sock = connection.sock
                connection.request(
                    "POST", "/query",
                    body=json.dumps({"xpath": "/bib/book/title"}),
                )
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["row_count"] > 0
                assert connection.sock is sock
            finally:
                connection.close()
            assert store.metrics.gauge(
                "gateway.connections"
            ).high_water == 1

    @pytest.mark.skipif(
        not os.path.exists("/proc/net/tcp"), reason="needs Linux /proc"
    )
    def test_one_listener_and_no_ops_thread(self, tmp_path):
        store, _ = _open(tmp_path)
        with store:
            before = _listening_inodes()
            gateway = store.serve_gateway()
            _get(gateway.url + "/snapshot")
            assert len(_listening_inodes() - before) == 1
            assert "ops-endpoint" not in {
                thread.name for thread in threading.enumerate()
            }
        assert _listening_inodes() <= before


# -- lifecycle ----------------------------------------------------------------


class TestGatewayLifecycle:
    def test_serve_gateway_idempotent_and_closed_with_store(
        self, tmp_path
    ):
        store, _ = _open(tmp_path)
        with store:
            gateway = store.serve_gateway()
            assert store.serve_gateway() is gateway
            port = gateway.port
        # After close the socket is gone.
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=0.5)

    def test_keep_alive_connection_reuse(self, tmp_path):
        store, _ = _open(tmp_path)
        with store:
            gateway = store.serve_gateway()
            raw = socket.create_connection(
                ("127.0.0.1", gateway.port), timeout=5
            )
            try:
                for _ in range(2):
                    raw.sendall(
                        b"GET /query?xpath=/bib HTTP/1.1\r\n"
                        b"Host: x\r\n\r\n"
                    )
                    data = b""
                    while b"\r\n\r\n" not in data:
                        data += raw.recv(4096)
                    head, _, rest = data.partition(b"\r\n\r\n")
                    assert b"200 OK" in head
                    assert b"Connection: keep-alive" in head
                    length = int(
                        [
                            line.split(b":")[1]
                            for line in head.split(b"\r\n")
                            if line.lower().startswith(b"content-length")
                        ][0]
                    )
                    while len(rest) < length:
                        rest += raw.recv(4096)
            finally:
                raw.close()

    def test_stream_after_stream_completes(self, tmp_path):
        """A stream releases its admission slot at finish: back-to-back
        streams on a max_in_flight=1 store must all succeed."""
        store, _ = _open(tmp_path, max_in_flight=1)
        with store:
            gateway = store.serve_gateway()
            for _ in range(3):
                events = _stream(
                    gateway.url + "/query",
                    {"xpath": "/bib/book", "stream": True},
                )
                assert events[-1]["event"] == "end"
            assert (
                store.metrics.gauge("serve.in_flight").value == 0
            )

    def test_stream_hangup_before_first_chunk_releases_slot(
        self, tmp_path
    ):
        """A client that vanishes before even the start event reaches
        the wire must not leak the admission slot: finish() runs on
        every exit path, including a hangup during the head write."""
        store, _ = _open(tmp_path, max_in_flight=1)
        with store:
            gateway = store.serve_gateway()

            spec = parse_query_payload(
                {"xpath": "/bib/book", "stream": True}
            )
            targets = {
                shard: store.shard_map.docs_for_shard(shard)
                for shard in store.pools
            }

            async def hangup():
                stream = ScatterStream(store.executor, spec.xpath, targets)
                with pytest.raises(ConnectionResetError):
                    await gateway._stream_query(HangupWriter(), stream, spec)

            # Pre-fix, the first hangup pinned the only slot forever
            # and every later attempt died Overloaded.
            for _ in range(3):
                asyncio.run(hangup())
            assert _wait_for(
                lambda: store.metrics.gauge("serve.in_flight").value == 0
            )
            status, body = _post(
                gateway.url + "/query", {"xpath": "/bib/book"}
            )
            assert status == 200 and body["row_count"] > 0


# -- the on-loop lane: full result-cache hits answered by the event loop ------


class HangupWriter:
    """A client that is gone by the time the response is written."""

    def write(self, data):
        raise ConnectionResetError("client went away")

    async def drain(self):
        pass


class RecordingWriter:
    def __init__(self):
        self.writes = []

    def write(self, data):
        self.writes.append(data)

    async def drain(self):
        pass


class TestOnLoopLane:
    XPATH = "/bib/book/title"
    LIMIT = 2

    @staticmethod
    def expected(doc_ids, document=None):
        """The evaluator's answer over *doc_ids*, each one *document*
        (``BIB_XML`` as stored, when not given)."""
        pres = [
            node.order_key
            for node in evaluate_nodes(
                document or parse_document(BIB_XML), TestOnLoopLane.XPATH
            )
        ]
        return [(doc_id, pre) for doc_id in sorted(doc_ids) for pre in pres]

    def read(self, gateway, streamed, **fields):
        """One request through one door: the rows its body decodes to
        (a streamed body's as the sorted union of its ``rows`` events)."""
        payload = {"xpath": self.XPATH, "stream": streamed, **fields}
        if not streamed:
            status, body = _post(gateway.url + "/query", payload)
            assert status == 200 and body["row_count"] == len(body["rows"])
            return [tuple(row) for row in body["rows"]]
        events = _stream(gateway.url + "/query", payload)
        assert [events[0]["event"], events[-1]["event"]] == ["start", "end"]
        return sorted(
            tuple(row) for event in events if event["event"] == "rows"
            for row in event["rows"]
        )

    def test_no_statement_and_no_acquire_on_the_loop_thread(
        self, tmp_path, monkeypatch
    ):
        """Cold, warm and partially invalidated requests — for one
        document and for all — through both doors: whoever acquires a
        connection or runs a statement, it is never the event loop."""
        store, ids = _open(tmp_path)
        with store:
            gateway = store.serve_gateway()
            loop_thread = gateway._thread.ident
            acquirers, statements = [], []
            pools = list(store.pools.values())
            for pool in pools:
                def acquire(timeout=None, real=pool.acquire):
                    acquirers.append(threading.get_ident())
                    return real(timeout)

                monkeypatch.setattr(pool, "acquire", acquire)
            for name in (
                "execute", "executemany", "executescript", "_raw_execute"
            ):
                def statement(db, *args, _real=getattr(Database, name)):
                    statements.append(threading.get_ident())
                    return _real(db, *args)

                monkeypatch.setattr(Database, name, statement)

            def acquired_by(read, doc_ids=None):
                before = len(acquirers)
                assert read() == self.expected(doc_ids or ids)
                return len(acquirers) - before

            for streamed in (False, True):
                for pool in pools:
                    pool.result_cache.invalidate()

                def read(**fields):
                    return self.read(gateway, streamed, **fields)

                def read_one():
                    return read(doc_id=ids[0])

                # One document first: cold it executes on a worker, warm
                # it is the loop's, like the scatter after it (which
                # finds that one document already cached).
                assert acquired_by(read_one, ids[:1]) == 1
                assert acquired_by(read_one, ids[:1]) == 0
                assert acquired_by(read) == len(store.pools)  # cold
                assert acquired_by(read) == 0  # warm: all on the loop
                # A write lands between two reads: its shard executes
                # again (on a worker), the other shards still hit.
                ids.append(store.store_text(BIB_XML, name="late"))
                assert acquired_by(read) == 1
            assert acquirers and statements
            assert loop_thread not in acquirers
            assert loop_thread not in statements

    @pytest.mark.parametrize(
        "streamed", (False, True), ids=("materialized", "streamed")
    )
    def test_a_warm_single_document_request_never_leaves_the_loop(
        self, tmp_path, streamed, monkeypatch
    ):
        """``doc_id`` requests take the same lane as a scatter: the
        repeat puts nothing on the worker pool, acquires no connection
        and runs no statement — on any thread."""
        store, ids = _open(tmp_path)
        with store:
            gateway = store.serve_gateway()
            doc = ids[1]

            def read():
                return self.read(gateway, streamed, doc_id=doc)

            assert read() == self.expected([doc])  # cold: executes
            handed_off, acquirers, statements = [], [], []
            monkeypatch.setattr(
                store.executor._threads, "submit",
                lambda *args: handed_off.append(args),
            )
            for pool in store.pools.values():
                monkeypatch.setattr(
                    pool, "acquire",
                    lambda timeout=None: acquirers.append(timeout),
                )
            for name in (
                "execute", "executemany", "executescript", "_raw_execute"
            ):
                monkeypatch.setattr(
                    Database, name,
                    lambda db, *args: statements.append(args),
                )
            served = store.metrics.counter("serve.doc_scoped_queries").value
            for _ in range(3):
                assert read() == self.expected([doc])
            assert (handed_off, acquirers, statements) == ([], [], [])
            assert (
                store.metrics.counter("serve.doc_scoped_queries").value
                == served + 3
            )
            monkeypatch.undo()  # closing the store runs statements

    WRITES = ("insert_subtree", "delete_subtree", "store_text", "rebalance")

    @pytest.mark.parametrize("write", WRITES)
    @pytest.mark.parametrize(
        "streamed", (False, True), ids=("materialized", "streamed")
    )
    def test_a_single_document_request_reads_its_stores_writes(
        self, tmp_path, streamed, write
    ):
        """Read-your-writes through the gateway: a write between two
        identical ``doc_id`` requests makes the second equal the
        evaluator's answer on the *post-write* document — whatever the
        first one left in the cache."""
        store, ids = _open(tmp_path)
        with store:
            gateway = store.serve_gateway()
            doc = ids[1]
            document = parse_document(BIB_XML)

            def read():
                return self.read(gateway, streamed, doc_id=doc)

            def insert():
                fragment = (
                    "<book year='2002'><title>Late</title>"
                    "<author><last>Writer</last></author></book>"
                )
                root = document.root_element
                store.insert_subtree(
                    doc, root.order_key, parse_fragment(fragment), 0
                )
                root.insert_child(0, parse_fragment(fragment))

            before = self.expected([doc], document)
            assert read() == before
            assert read() == before  # cached now
            if write == "insert_subtree":
                insert()
            elif write == "delete_subtree":
                victim = next(
                    element for element in document.iter_elements()
                    if element.tag == "book"
                )
                store.delete_subtree(doc, victim.order_key)
                victim.parent.remove_child(victim)
            elif write == "store_text":
                # Another document, round-robined onto some shard: the
                # answer for this one must not move.
                for n in range(len(store.pools)):
                    store.store_text(BIB_XML, name=f"late-{n}")
            elif write == "rebalance":
                shard = store.resolve(doc).shard
                store.rebalance(doc, (shard + 1) % len(store.pools))
            after = self.expected([doc], document)
            assert (after != before) == (
                write in ("insert_subtree", "delete_subtree")
            )
            assert read() == after
            assert read() == after
            assert store.verify_ok()

    ON_LOOP_EXITS = ("hit", "expired", "hangup", "shed")

    @pytest.mark.parametrize("exit_name", ON_LOOP_EXITS)
    @pytest.mark.parametrize(
        "streamed", (False, True), ids=("materialized", "streamed")
    )
    def test_every_on_loop_exit_releases_the_slot(
        self, tmp_path, streamed, exit_name, monkeypatch
    ):
        self.on_loop_exit(tmp_path, streamed, exit_name, monkeypatch, False)

    @pytest.mark.parametrize("exit_name", ON_LOOP_EXITS)
    @pytest.mark.parametrize(
        "streamed", (False, True), ids=("materialized", "streamed")
    )
    def test_every_on_loop_exit_of_a_single_document_request_releases_the_slot(
        self, tmp_path, streamed, exit_name, monkeypatch
    ):
        self.on_loop_exit(tmp_path, streamed, exit_name, monkeypatch, True)

    def on_loop_exit(
        self, tmp_path, streamed, exit_name, monkeypatch, one_document
    ):
        """A warm request — all documents, or one ``doc_id`` — leaving
        the loop's lane by *exit_name*: never handed off, slot back."""
        store, ids = _open(tmp_path, max_in_flight=self.LIMIT)
        with store:
            gateway = store.serve_gateway()
            executor = store.executor
            payload = {"xpath": self.XPATH, "stream": streamed}
            doc_id = None
            if one_document:
                doc_id = payload["doc_id"] = ids[2]
                ids = [doc_id]

            def read():
                fields = {} if doc_id is None else {"doc_id": doc_id}
                return self.read(gateway, streamed, **fields)

            assert read() == self.expected(ids)  # warm
            handed_off = []
            monkeypatch.setattr(
                store.executor._threads, "submit",
                lambda *args: handed_off.append(args),
            )
            if exit_name == "hit":
                assert read() == self.expected(ids)
            elif exit_name == "expired":
                # A full hit still honours a deadline already missed.
                status, body = _post(
                    gateway.url + "/query",
                    {**payload, "deadline_seconds": 1e-9},
                    expect_error=True,
                )
                assert status == 504 and body["error"] == "DeadlineExceeded"
            elif exit_name == "hangup":
                spec = parse_query_payload(payload)

                async def hangup():
                    stream = ScatterStream(
                        executor, spec.xpath, store.targets(doc_id)
                    )
                    assert stream.settled
                    with pytest.raises(ConnectionResetError):
                        if streamed:
                            await gateway._stream_query(
                                HangupWriter(), stream, spec
                            )
                        else:
                            await gateway._materialized_query(
                                HangupWriter(), stream, False
                            )

                asyncio.run(hangup())
            elif exit_name == "shed":
                held = 0
                while executor._gate.acquire(blocking=False):
                    held += 1
                try:
                    status, body = _post(
                        gateway.url + "/query", payload, expect_error=True
                    )
                finally:
                    for _ in range(held):
                        executor._gate.release()
                assert status == 429 and body["error"] == "Overloaded"
            assert handed_off == []  # never left the loop
            assert _wait_for(
                lambda: store.metrics.gauge("serve.in_flight").value == 0
            )
            assert free_slots(executor) == self.LIMIT

    def test_a_handoff_cancelled_before_it_ran_releases_the_slot(
        self, tmp_path
    ):
        """The miss path: a materialized request cancelled while its
        reads are still queued behind wedged workers — no read ever
        runs, the driver's ``with stream:`` still finishes it."""
        store, _ = _open(tmp_path, max_in_flight=self.LIMIT)
        with store:
            gateway = store.serve_gateway()
            threads = store.executor._threads
            wedge = threading.Event()
            for _ in range(threads._max_workers):
                threads.submit(wedge.wait)  # every worker is busy

            async def cancelled():
                stream = ScatterStream(
                    store.executor, self.XPATH, store.targets()
                )
                assert not stream.settled
                task = asyncio.ensure_future(
                    gateway._materialized_query(
                        RecordingWriter(), stream, False
                    )
                )
                await asyncio.sleep(0.05)
                assert free_slots(store.executor) == self.LIMIT - 1
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                assert all(future.cancelled() for future in stream.futures)

            try:
                asyncio.run(cancelled())
            finally:
                wedge.set()
            assert store.metrics.gauge("serve.in_flight").value == 0
            assert free_slots(store.executor) == self.LIMIT

    @pytest.mark.parametrize(
        "streamed, scoped",
        ((False, False), (True, False), (False, True), (True, True)),
        ids=("materialized", "streamed", "materialized-doc", "streamed-doc"),
    )
    def test_a_full_hit_is_accounted_like_any_request(
        self, tmp_path, streamed, scoped
    ):
        """Counters, latency histograms, per-shard histograms and the
        wide event all land — once, from the one ``finish``.  The cold
        request's shards all executed; the warm one's all hit."""
        store, ids = _open(tmp_path)
        with store:
            gateway = store.serve_gateway()
            log = store.executor.request_log
            metrics = store.metrics
            docs = ids[:1] if scoped else ids
            fields = {"doc_id": docs[0]} if scoped else {}
            shards = (
                [store.resolve(docs[0]).shard] if scoped else list(store.pools)
            )
            self.read(gateway, streamed, **fields)  # warm

            def http_events():
                return [e for e in log.tail(50) if e["event"] == "http"]

            assert _wait_for(lambda: len(http_events()) == 1)
            counter = (
                "serve.doc_scoped_queries" if scoped
                else "serve.scatter_queries"
            )
            counted = {
                name: metrics.counter(name).value
                for name in ("serve.queries", counter)
            }
            timed = {
                name: metrics.histogram(name).count
                for name in ["serve.query_seconds", "serve.query_seconds.ok"]
                + [f"serve.shard{n}.query_seconds" for n in shards]
            }
            assert self.read(gateway, streamed, **fields) == self.expected(
                docs
            )
            assert _wait_for(lambda: len(http_events()) == 2)
            for name, before in counted.items():
                assert metrics.counter(name).value == before + 1, name
            for name, before in timed.items():
                assert metrics.histogram(name).count == before + 1, name
            queries = [e for e in log.tail(50) if e["event"] == "query"]
            assert len(queries) == 2
            cold, hit = queries
            assert [s["result_cache"] for s in cold["per_shard"]] == [
                "miss"
            ] * len(shards)
            assert hit["outcome"] == "ok" and hit["rows"] == len(docs) * 2
            assert [s["result_cache"] for s in hit["per_shard"]] == [
                "hit"
            ] * len(shards)
            assert hit["request_id"] == http_events()[-1]["request_id"]

    @pytest.mark.parametrize("warm", (False, True), ids=("cold", "warm"))
    def test_a_stream_opens_with_one_write(self, tmp_path, warm):
        """Head and ``start`` event (and whatever was answered at open)
        leave together; a full hit is the whole response in one write."""
        store, ids = _open(tmp_path)
        with store:
            gateway = store.serve_gateway()
            spec = parse_query_payload({"xpath": self.XPATH, "stream": True})
            if warm:
                store.query_all(self.XPATH)
            writer = RecordingWriter()

            async def respond():
                stream = ScatterStream(
                    store.executor, spec.xpath, store.targets()
                )
                return await gateway._stream_query(writer, stream, spec)

            status, _first_byte, rows = asyncio.run(respond())
            assert status == 200 and rows == len(ids) * 2
            first = writer.writes[0]
            assert first.startswith(b"HTTP/1.1 200")
            assert b'{"event":"start"' in first
            if warm:
                assert len(writer.writes) == 1
                assert first.endswith(b"0\r\n\r\n")
                assert first.count(b'"event":"rows"') == len(store.pools)
            else:
                assert len(writer.writes) > 1
                assert b'"event":"rows"' not in first


# -- one driver: both routes are submit -> await -> fold on the worker pool ---


class FlakyWriter(RecordingWriter):
    """A client that takes the first write and is gone by the second."""

    def write(self, data):
        if self.writes:
            raise ConnectionResetError("client went away")
        super().write(data)


class TestOneDriver:
    XPATH = TestOnLoopLane.XPATH
    STALL = 0.3
    CASES = ("miss", "partial", "fail", "deadline", "hangup")

    def request(self, gateway, streamed, **fields):
        """One HTTP request normalized across routes: ``(status, rows,
        error name)`` — a streamed body's status is its terminal
        event's, its rows the sorted union of its ``rows`` events."""
        payload = {"xpath": self.XPATH, "stream": streamed, **fields}
        if not streamed:
            status, body = _post(
                gateway.url + "/query", payload, expect_error=True
            )
            rows = body.get("rows")
            if rows is not None:
                rows = [tuple(row) for row in rows]
            return status, rows, body.get("error")
        events = _stream(gateway.url + "/query", payload)
        last = events[-1]
        if last["event"] == "error":
            return last["status"], None, last["error"]
        assert last["event"] == "end"
        return (
            206 if last["outcome"] == "partial" else 200,
            sorted(
                tuple(row) for event in events if event["event"] == "rows"
                for row in event["rows"]
            ),
            None,
        )

    def drive(self, tmp_path, streamed, one_document, case):
        """*case* on a fresh (so uncached) store through one route:
        what the client saw, plus the ``serve.*`` span paths under the
        request's ``serve.query``."""
        policy = ShardFaultPolicy()
        store, ids = _open(
            tmp_path,
            "streamed" if streamed else "materialized",
            fault_policy=policy,
            tracer=Tracer(enabled=True),
            on_shard_error="partial" if case == "partial" else "fail",
        )
        with store:
            gateway = store.serve_gateway()
            executor = store.executor
            doc_id = ids[2] if one_document else None
            bad = store.resolve(ids[2]).shard
            fields = {} if doc_id is None else {"doc_id": doc_id}
            asked = ids if doc_id is None else [doc_id]
            if case in ("partial", "fail"):
                policy.fail_shard(bad)
            elif case in ("deadline", "hangup"):
                policy.stall_shard(bad, self.STALL)
            if case == "hangup":
                spec = parse_query_payload(
                    {"xpath": self.XPATH, "stream": streamed, **fields}
                )

                async def hangup():
                    stream = ScatterStream(
                        executor, spec.xpath, store.targets(doc_id)
                    )
                    assert not stream.settled
                    answer = (
                        gateway._stream_query(FlakyWriter(), stream, spec)
                        if streamed
                        else gateway._materialized_query(
                            HangupWriter(), stream, False
                        )
                    )
                    with pytest.raises(ConnectionResetError):
                        await answer

                asyncio.run(hangup())
                seen = None
            elif case == "deadline":
                seen = self.request(
                    gateway, streamed,
                    deadline_seconds=self.STALL / 3, **fields
                )
            else:
                seen = self.request(gateway, streamed, **fields)
            if case == "miss":
                assert seen == (200, TestOnLoopLane.expected(asked), None)
            elif case == "partial":
                survivors = [
                    doc for doc in asked if store.resolve(doc).shard != bad
                ]
                assert seen == (
                    206, TestOnLoopLane.expected(survivors), None
                )
            elif case == "fail":
                assert seen == (502, None, "ShardError")
            elif case == "deadline":
                assert seen == (504, None, "DeadlineExceeded")
            # The owed reads ran on the one worker pool: all of them,
            # unless the request ended early (a read still queued when
            # it fails fast or loses its client is cancelled, not run).
            whole = case in ("miss", "partial", "deadline")
            shards = len(store.targets(doc_id))
            tracer = store.tracer
            assert _wait_for(
                lambda: len(tracer.spans_named("serve.execute"))
                >= (shards if whole else 1)
            )
            workers = {
                thread.ident for thread in threading.enumerate()
                if thread.name.startswith("xmlrel-serve")
            }
            assert {
                span.thread_id
                for span in tracer.spans_named("serve.execute")
            } <= workers
            assert _wait_for(
                lambda: store.metrics.gauge("serve.in_flight").value == 0
            )
            assert free_slots(executor) == executor.max_in_flight
            (query,) = [
                span for root in tracer.roots for span in root.walk()
                if span.name == "serve.query"
            ]
            assert _wait_for(
                lambda: all(span.finished for span in query.walk())
            )

            def paths(span, prefix=()):
                here = prefix + (span.name,)
                yield here
                for child in span.children:
                    if child.name.startswith("serve."):
                        yield from paths(child, here)

            shape = sorted(paths(query) if whole else set(paths(query)))
            if case == "hangup":
                # A client found gone at the last write (one body
                # always; a stream when its last shard was the slow
                # one) hung up after the merge, else before it.
                shape = [path for path in shape if "serve.merge" not in path]
            assert ("serve.query", "serve.shard", "serve.execute") in shape
            return seen, shape

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize(
        "one_document", (True, False), ids=("doc_id", "all")
    )
    def test_both_routes_are_the_same_request(
        self, tmp_path, one_document, case
    ):
        """Materialized and streamed differ only in what they do with
        a folded shard: same answer (the evaluator's), same span tree,
        same pool, same accounting — for every way a miss can end."""
        materialized = self.drive(tmp_path, False, one_document, case)
        streamed = self.drive(tmp_path, True, one_document, case)
        assert materialized == streamed

    @pytest.mark.parametrize(
        "one_document", (True, False), ids=("doc_id", "all")
    )
    @pytest.mark.parametrize(
        "streamed", (False, True), ids=("materialized", "streamed")
    )
    def test_an_untyped_error_in_a_shard_read_is_answered(
        self, tmp_path, streamed, one_document, monkeypatch
    ):
        """A bug under a shard read (not an ``XmlRelError``) is a typed
        JSON 500 — in-band once the chunked head is out — accounted and
        logged like any request; it used to drop the connection."""
        from repro.storage.base import MappingScheme

        store, ids = _open(tmp_path)
        with store:
            gateway = store.serve_gateway()
            log = store.executor.request_log
            monkeypatch.setattr(
                MappingScheme, "query_pres", _raiser(RuntimeError("boom"))
            )
            fields = {"doc_id": ids[1]} if one_document else {}
            assert self.request(gateway, streamed, **fields) == (
                500, None, "RuntimeError"
            )
            monkeypatch.undo()

            def events(kind):
                return [e for e in log.tail(50) if e["event"] == kind]

            assert _wait_for(lambda: len(events("http")) == 1)
            (http_event,), (query_event,) = events("http"), events("query")
            assert http_event["status"] == 500
            assert query_event["outcome"] == "error"
            assert http_event["request_id"] == query_event["request_id"]
            assert store.metrics.counter("gateway.status.500").value == 1
            assert store.metrics.counter("gateway.requests").value == 1
            assert store.metrics.gauge("serve.in_flight").value == 0
            assert free_slots(store.executor) == store.executor.max_in_flight
            # The endpoint is still up.
            assert self.request(gateway, streamed, **fields)[0] == 200

    @pytest.mark.parametrize("refusal", ("shed", "expired"))
    def test_a_stream_refused_before_its_first_byte_keeps_the_connection(
        self, tmp_path, refusal
    ):
        """A streamed request refused while opening (429 at the gate,
        504 for a hit already past its deadline) is a plain JSON
        response: its head must not promise keep-alive on a socket the
        gateway then closes — the retry goes out on the same one."""
        store, ids = _open(tmp_path)
        with store:
            gateway = store.serve_gateway()
            executor = store.executor
            payload = {"xpath": self.XPATH, "stream": True}
            connection = http.client.HTTPConnection(
                "127.0.0.1", gateway.port, timeout=5
            )

            def post(**fields):
                connection.request(
                    "POST", "/query",
                    body=json.dumps({**payload, **fields}),
                )
                response = connection.getresponse()
                return response, response.read()

            try:
                if refusal == "shed":
                    held = 0
                    while executor._gate.acquire(blocking=False):
                        held += 1
                    try:
                        response, body = post()
                    finally:
                        for _ in range(held):
                            executor._gate.release()
                    assert response.status == 429
                    assert response.getheader("Retry-After") == "1"
                else:
                    store.query_all(self.XPATH)  # warm: settled at open
                    response, body = post(deadline_seconds=1e-9)
                    assert response.status == 504
                assert response.getheader("Connection") == "keep-alive"
                assert json.loads(body)["status"] == response.status
                sock = connection.sock
                response, body = post()  # the retry, same connection
                assert connection.sock is None or connection.sock is sock
                assert response.status == 200
                assert response.getheader("Connection") == "close"
                events = [json.loads(line) for line in body.splitlines()]
                rows = sorted(
                    tuple(row) for event in events
                    if event["event"] == "rows" for row in event["rows"]
                )
                assert rows == TestOnLoopLane.expected(ids)
            finally:
                connection.close()
