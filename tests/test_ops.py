"""Operational telemetry plane: cross-thread trace trees over the
serving stack, Prometheus exposition, the gateway's ops routes, the
wide-event request log, and the ``obs.top`` renderer."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.obs import (
    MetricsRegistry,
    RequestLog,
    Tracer,
    parse_prometheus,
    to_chrome_trace,
    to_prometheus,
)
from repro.obs.top import render_snapshot
from repro.serve import ShardedStore

BOOK = "<bib><book><title>t{i}</title><year>200{i}</year></book></bib>"


@pytest.fixture()
def traced_store(tmp_path):
    """A 4-shard round-robin store with one document per shard, under
    an enabled tracer."""
    tracer = Tracer()
    store = ShardedStore.open(
        str(tmp_path / "store"),
        scheme="interval",
        shards=4,
        placement="round_robin",
        tracer=tracer,
    )
    for i in range(4):
        store.store_text(BOOK.format(i=i), name=f"doc-{i}")
    try:
        yield store, tracer
    finally:
        store.close()


class TestScatterTraceTree:
    """Acceptance: a 4-shard scatter's spans form ONE tree under a
    single ``serve.query`` root."""

    def test_scatter_spans_parent_under_one_root(self, traced_store):
        store, tracer = traced_store
        tracer.reset()
        result = store.query_all("//book/title")
        assert len(result.rows) == 4

        roots = [r for r in tracer.roots if r.name == "serve.query"]
        assert len(roots) == 1
        root = roots[0]
        assert root.attributes["request_id"].startswith("req-")

        shard_spans = [
            c for c in root.children if c.name == "serve.shard"
        ]
        assert sorted(s.attributes["shard"] for s in shard_spans) == (
            [0, 1, 2, 3]
        )
        # Each shard span parents its execute span, and the merge ran
        # under the same root — the whole fan-out is one tree.
        for shard_span in shard_spans:
            assert shard_span.parent_id == root.span_id
            assert any(
                child.name == "serve.execute"
                for child in shard_span.children
            )
        assert any(c.name == "serve.merge" for c in root.children)
        # No serve.* span escaped the tree as a detached root.
        assert not any(
            r.name.startswith("serve.") and r is not root
            for r in tracer.roots
        )
        assert not any(
            "detached" in span.attributes for span in root.walk()
        )

    def test_doc_scoped_query_tree_and_request_ids_are_distinct(
        self, traced_store
    ):
        store, tracer = traced_store
        docs = [record.doc_id for record in store.documents()]
        tracer.reset()
        store.query_pres(docs[0], "//title")
        store.query_pres(docs[1], "//title")
        roots = [r for r in tracer.roots if r.name == "serve.query"]
        assert len(roots) == 2
        ids = [r.attributes["request_id"] for r in roots]
        assert len(set(ids)) == 2

    def test_chrome_trace_has_stable_tids_and_connected_tree(
        self, traced_store
    ):
        store, tracer = traced_store
        tracer.reset()
        store.query_all("//book/year")
        trace = to_chrome_trace(tracer)
        spans = [
            e for e in trace["traceEvents"]
            if e["ph"] == "X" and "span_id" in e["args"]
        ]
        # Thread-id mapping is stable: every OS thread maps to exactly
        # one small tid and vice versa.
        by_span_id = {e["args"]["span_id"]: e for e in spans}
        thread_to_tid: dict[int, int] = {}
        for span in tracer.finished:
            event = by_span_id[str(span.span_id)]
            tid = thread_to_tid.setdefault(span.thread_id, event["tid"])
            assert event["tid"] == tid
        assert len(set(thread_to_tid.values())) == len(thread_to_tid)
        # The parent_id args reconstruct one connected tree: every span
        # except the serve.query root reaches the root by walking up.
        root = next(
            e for e in spans if e["name"] == "serve.query"
        )
        for event in spans:
            current = event
            hops = 0
            while "parent_id" in current["args"]:
                current = by_span_id[current["args"]["parent_id"]]
                hops += 1
                assert hops < 100
            assert current is root


class TestPrometheusExposition:
    def test_registry_renders_and_parses(self):
        registry = MetricsRegistry()
        registry.counter("serve.queries").inc(7)
        registry.gauge("serve.in_flight").set(2)
        for _ in range(10):
            registry.histogram("serve.query_seconds").observe(0.004)
        text = to_prometheus(registry, windows=(60.0,))
        parsed = parse_prometheus(text)
        names = {s["name"] for s in parsed["samples"]}
        assert "xmlrel_serve_queries_total" in names
        assert "xmlrel_serve_in_flight" in names
        assert "xmlrel_serve_query_seconds_count" in names
        quantiles = [
            s for s in parsed["samples"]
            if s["name"] == "xmlrel_serve_query_seconds"
        ]
        assert {s["labels"]["quantile"] for s in quantiles} == {
            "0.5", "0.9", "0.99"
        }
        windowed = [
            s for s in parsed["samples"]
            if s["labels"].get("window") == "60s"
            and s["labels"].get("quantile") == "0.99"
        ]
        assert windowed and all(
            s["value"] > 0 for s in windowed
        )
        assert parsed["types"]["xmlrel_serve_queries_total"] == "counter"
        assert parsed["types"]["xmlrel_serve_query_seconds"] == "summary"

    def test_parser_rejects_malformed_text(self):
        with pytest.raises(ValueError):
            parse_prometheus("this is { not exposition format")
        with pytest.raises(ValueError):
            parse_prometheus('metric{bad-label="x"} 1')
        with pytest.raises(ValueError):
            parse_prometheus("metric notanumber")


class TestOpsRoutes:
    def _get(self, url):
        with urllib.request.urlopen(url, timeout=5) as response:
            return response.status, response.read().decode()

    def test_endpoints_serve_metrics_snapshot_and_health(self, tmp_path):
        tracer = Tracer()
        with ShardedStore.open(
            str(tmp_path / "store"),
            scheme="interval",
            shards=2,
            placement="round_robin",
            tracer=tracer,
        ) as store:
            server = store.serve_gateway()
            assert store.serve_gateway() is server  # idempotent
            doc = store.store_text(BOOK.format(i=1), name="doc")
            store.query_pres(doc, "//title")
            store.query_all("//book")

            status, body = self._get(server.url + "/metrics")
            assert status == 200
            parsed = parse_prometheus(body)
            assert any(
                s["name"] == "xmlrel_serve_queries_total"
                and s["value"] >= 2
                for s in parsed["samples"]
            )
            # Windowed per-shard latency series are present.
            assert any(
                "shard" in s["name"]
                and s["labels"].get("window") == "60s"
                and s["labels"].get("quantile") == "0.99"
                for s in parsed["samples"]
            )

            status, body = self._get(server.url + "/healthz")
            health = json.loads(body)
            assert status == 200
            assert health["status"] == "ok"
            assert [s["status"] for s in health["shards"]] == ["ok", "ok"]
            assert health["in_flight"]["limit"] == 32
            assert health["error_budget"]["query"]["burn_rate"] == 0.0

            status, body = self._get(server.url + "/snapshot")
            snapshot = json.loads(body)
            assert status == 200
            assert snapshot["server"]["shards"] == 2
            assert snapshot["requests"]["stats"]["emitted"] >= 2
            events = snapshot["requests"]["tail"]
            assert any(e["event"] == "query" for e in events)
            assert any(e["event"] == "update" for e in events)

            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._get(server.url + "/nope")
            assert excinfo.value.code == 404

    def test_healthz_degrades_when_a_shard_dies(self, tmp_path):
        from repro.reliability.faults import ShardFaultPolicy

        policy = ShardFaultPolicy()
        tracer = Tracer()
        with ShardedStore.open(
            str(tmp_path / "store"),
            scheme="interval",
            shards=2,
            placement="round_robin",
            tracer=tracer,
            fault_policy=policy,
        ) as store:
            store.store_text(BOOK.format(i=1), name="doc")
            server = store.serve_gateway()
            policy.crash_shard(1)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._get(server.url + "/healthz")
            assert excinfo.value.code == 503
            health = json.loads(excinfo.value.read().decode())
            assert health["status"] == "degraded"
            assert health["shards"][1]["status"] == "down"


class TestWideEventLog:
    @pytest.mark.parametrize("scheme", ["interval", "edge", "binary"])
    def test_query_events_carry_the_fanout_breakdown(self, tmp_path, scheme):
        log = RequestLog(capacity=64)
        with ShardedStore.open(
            str(tmp_path / "store"),
            scheme=scheme,
            shards=2,
            placement="round_robin",
            request_log=log,
        ) as store:
            doc = store.store_text(BOOK.format(i=1), name="doc")
            store.query_pres(doc, "//title")  # cold
            store.query_pres(doc, "//title")  # warm
            events = [
                e for e in log.tail() if e["event"] == "query"
            ]
            assert len(events) == 2
            cold, warm = events
            for event in (cold, warm):
                assert event["outcome"] == "ok"
                assert event["request_id"].startswith("req-")
                assert event["deadline_seconds"] is None
                assert len(event["per_shard"]) == 1
                assert "lint" in event["per_shard"][0]
            # plan_cached reflects the cache at event time (the cold
            # query populated it), and the warm query reused it.
            assert warm["per_shard"][0]["plan_cached"] is True

    @pytest.mark.parametrize("lint, verdict", [
        ("default", "clean"),
        ("strict", "clean"),
    ])
    def test_the_event_carries_the_pools_lint_verdict(
        self, tmp_path, lint, verdict
    ):
        log = RequestLog(capacity=64)
        with ShardedStore.open(
            str(tmp_path / "store"),
            scheme="interval",
            shards=1,
            lint=lint,
            request_log=log,
        ) as store:
            doc = store.store_text(BOOK.format(i=1), name="doc")
            store.query_pres(doc, "//title")  # cold
            store.query_pres(doc, "//title")  # result-cache hit
            events = [e for e in log.tail() if e["event"] == "query"]
            assert [e["per_shard"][0]["lint"] for e in events] == (
                [verdict] * 2
            )

    def test_failed_queries_emit_events_and_outcome_metrics(
        self, tmp_path
    ):
        log = RequestLog(capacity=64)
        with ShardedStore.open(
            str(tmp_path / "store"),
            scheme="interval",
            shards=2,
            placement="round_robin",
            request_log=log,
        ) as store:
            doc = store.store_text(BOOK.format(i=1), name="doc")
            with pytest.raises(Exception):
                store.query_pres(doc, "//title", deadline=0.0)
            event = log.tail()[-1]
            assert event["event"] == "query"
            assert event["outcome"] == "deadline_exceeded"
            assert "error" in event
            assert event["deadline_slack_seconds"] < 0
            metrics = store.metrics
            assert metrics.counter_value(
                "serve.query.outcome.deadline_exceeded"
            ) == 1
            # Satellite fix: failed queries land in the latency
            # histogram too (lifetime count covers both outcomes).
            histogram = metrics.histogram("serve.query_seconds")
            assert histogram.count == 1

    def test_log_writes_jsonl_and_drops_instead_of_blocking(
        self, tmp_path
    ):
        path = str(tmp_path / "events.jsonl")
        log = RequestLog(capacity=8, path=path)
        for i in range(8):
            assert log.emit({"i": i})
        log.flush()
        log.close()
        lines = [
            json.loads(line)
            for line in open(path, encoding="utf-8")
        ]
        assert [line["i"] for line in lines] == list(range(8))
        # The in-memory tail is bounded and emit never raises.
        ring = RequestLog(capacity=4)
        for i in range(100):
            ring.emit({"i": i})
        assert [e["i"] for e in ring.tail()] == [96, 97, 98, 99]
        assert ring.stats()["retained"] == 4

    def test_writer_queue_overflow_counts_drops(self, tmp_path):
        path = str(tmp_path / "slow.jsonl")
        log = RequestLog(capacity=2, path=path)
        # Stall the writer by flooding faster than it can drain; with a
        # 2-slot queue some events must be dropped, never blocked on.
        started = time.perf_counter()
        for i in range(5000):
            log.emit({"i": i, "pad": "x" * 256})
        elapsed = time.perf_counter() - started
        log.close()
        assert elapsed < 5.0  # non-blocking: no backpressure stall
        stats = log.stats()
        assert stats["emitted"] == 5000
        assert stats["dropped"] + len(
            open(path, encoding="utf-8").readlines()
        ) >= stats["dropped"]  # file has whatever survived
        assert stats["retained"] == 2


class TestTopRenderer:
    def test_render_snapshot_builds_a_per_shard_table(self, tmp_path):
        tracer = Tracer()
        with ShardedStore.open(
            str(tmp_path / "store"),
            scheme="interval",
            shards=2,
            placement="round_robin",
            tracer=tracer,
        ) as store:
            store.store_text(BOOK.format(i=1), name="doc")
            server = store.serve_gateway()
            store.query_all("//book")
            with urllib.request.urlopen(
                server.url + "/snapshot", timeout=5
            ) as response:
                snapshot = json.loads(response.read())
        frame = render_snapshot(snapshot)
        assert "status=ok" in frame
        assert "shard" in frame and "p99 ms" in frame
        # One row per shard, plus outcome and request-log summaries.
        lines = frame.splitlines()
        shard_rows = [
            line for line in lines
            if line.strip().startswith(("0 ", "1 "))
        ]
        assert len(shard_rows) == 2
        assert any("outcomes" in line for line in lines)
        assert any("request log" in line for line in lines)

    def test_render_survives_an_empty_snapshot(self):
        frame = render_snapshot({})
        assert "status=?" in frame
