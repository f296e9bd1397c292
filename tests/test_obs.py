"""Observability layer: spans, statement events, metrics, exporters,
query introspection, and the bounded-overhead guarantee."""

import json
import tempfile
import threading
import time

import pytest

from repro import Tracer, XmlRelStore
from repro.obs import (
    NULL_TRACER,
    Explanation,
    MetricsRegistry,
    QueryReport,
    RequestLog,
    WindowRing,
    format_span_tree,
    load_snapshot,
    to_chrome_trace,
    to_jsonl,
    to_prometheus,
)
from repro.relational.database import Database
from repro.relational.retry import RetryPolicy
from repro.reliability.faults import FaultInjectingDatabase

from .conftest import BIB_XML


def traced_session(**tracer_kwargs):
    """One stored document + one query under a fresh tracer."""
    tracer = Tracer(**tracer_kwargs)
    with XmlRelStore.open(scheme="interval", tracer=tracer) as store:
        doc_id = store.store_text(BIB_XML, "bib")
        pres = store.query_pres(doc_id, "/bib/book/title")
    assert len(pres) == 2
    return tracer


class TestSpans:
    def test_store_and_query_nest_at_least_three_levels(self):
        tracer = traced_session()
        assert tracer.max_depth() >= 3
        # The pipeline phases are all present...
        names = {span.name for span in tracer.finished}
        assert {"store", "stream_shred", "analyze",
                "query", "translate", "execute",
                "sql.statement"} <= names
        # ...and SQL statements nest under the shred and execute phases.
        shred = tracer.spans_named("stream_shred")[0]
        assert any(c.name == "sql.statement" for c in shred.children)
        # One vocabulary for every store door: nodes and rows sit on
        # the store span, and nothing marks a lane.
        store = tracer.spans_named("store")[0]
        assert store.attributes["nodes"] > 0
        assert store.attributes["rows"] > 0
        assert "streaming" not in store.attributes
        execute = tracer.spans_named("execute")[0]
        assert any(c.name == "sql.statement" for c in execute.children)

    def test_timings_are_monotonic_and_contained(self):
        tracer = traced_session()
        for root in tracer.roots:
            for span in root.walk():
                assert span.finished
                assert span.duration >= 0.0
                previous_start = span.start
                for child in span.children:
                    # Children run inside the parent's interval, in
                    # start order.
                    assert child.start >= span.start
                    assert child.end <= span.end + 1e-9
                    assert child.start >= previous_start
                    previous_start = child.start
                    assert child.depth == span.depth + 1

    def test_statement_spans_carry_sql_rows_and_duration(self):
        tracer = traced_session()
        statements = tracer.spans_named("sql.statement")
        assert statements
        for span in statements:
            assert span.attributes["sql"]
            assert span.attributes["params"] >= 0
            assert span.attributes["retries"] == 0
        select = [
            s for s in statements
            if s.attributes["sql"].startswith("SELECT DISTINCT")
        ]
        assert select and select[-1].attributes["rows"] == 2

    def test_query_span_reports_scheme_xpath_and_rows(self):
        tracer = traced_session()
        query = tracer.spans_named("query")[0]
        assert query.attributes["scheme"] == "interval"
        assert query.attributes["xpath"] == "/bib/book/title"
        assert query.attributes["rows"] == 2

    def test_span_tree_renders_every_phase(self):
        tracer = traced_session()
        tree = format_span_tree(tracer)
        for name in ("store", "stream_shred", "query", "sql.statement"):
            assert name in tree
        assert "ms" in tree


class TestDisabledTracer:
    def test_disabled_tracer_records_nothing(self):
        tracer = traced_session(enabled=False)
        assert tracer.finished == []
        assert tracer.roots == []
        assert tracer.events == []
        assert tracer.metrics.is_empty()

    def test_default_store_uses_shared_null_tracer(self):
        with XmlRelStore.open(scheme="edge") as store:
            assert store.tracer is NULL_TRACER
            doc_id = store.store_text(BIB_XML)
            store.query_pres(doc_id, "//title")
        assert NULL_TRACER.finished == []
        assert NULL_TRACER.metrics.is_empty()


class TestStatementRetries:
    def policy(self):
        return RetryPolicy(
            max_attempts=5, base_delay=0.001, sleep=lambda _d: None,
            seed=3,
        )

    def test_busy_burst_counts_retries_on_the_statement_span(self):
        tracer = Tracer()
        db = FaultInjectingDatabase(retry=self.policy(), tracer=tracer)
        db.execute("CREATE TABLE t (x)")
        db.busy_next(3)
        db.execute("INSERT INTO t VALUES (1)")
        span = tracer.spans_named("sql.statement")[-1]
        assert span.attributes["retries"] == 3
        assert tracer.metrics.counter_value("db.retries") == 3
        assert tracer.metrics.counter_value("db.transient_errors") == 3
        assert tracer.metrics.counter_value("faults.injected") == 3
        assert tracer.metrics.counter_value("faults.busy") == 3

    def test_exhausted_retries_mark_the_span_as_errored(self):
        tracer = Tracer()
        db = FaultInjectingDatabase(retry=self.policy(), tracer=tracer)
        db.execute("CREATE TABLE t (x)")
        db.busy_next(99)
        with pytest.raises(Exception):
            db.execute("INSERT INTO t VALUES (1)")
        span = tracer.spans_named("sql.statement")[-1]
        assert span.attributes["retries"] == 4  # max_attempts - 1
        assert "error" in span.attributes
        assert tracer.metrics.counter_value("db.errors") == 1

    def test_executemany_generator_retry_inserts_full_batch(self):
        # The satellite fix: a one-shot generator must be materialized
        # before the first attempt, so a mid-batch transient failure and
        # retry can never insert an empty or short batch.
        tracer = Tracer()
        db = FaultInjectingDatabase(retry=self.policy(), tracer=tracer)
        db.execute("CREATE TABLE t (x)")
        db.busy_next(2)
        db.executemany(
            "INSERT INTO t VALUES (?)", ((i,) for i in range(50))
        )
        assert db.scalar("SELECT COUNT(*) FROM t") == 50
        span = [
            s for s in tracer.spans_named("sql.statement")
            if s.attributes.get("kind") == "executemany"
        ][-1]
        assert span.attributes["rows"] == 50
        assert span.attributes["retries"] == 2

    def test_executemany_without_retry_still_materializes(self):
        db = Database()
        db.execute("CREATE TABLE t (x)")
        rows = iter([(1,), (2,), (3,)])
        db.executemany("INSERT INTO t VALUES (?)", rows)
        assert db.scalar("SELECT COUNT(*) FROM t") == 3


class TestSlowQueryCapture:
    def test_threshold_zero_captures_a_plan_for_selects(self):
        tracer = Tracer(slow_query_threshold=0.0)
        with XmlRelStore.open(scheme="interval", tracer=tracer) as store:
            doc_id = store.store_text(BIB_XML)
            store.query_pres(doc_id, "//title")
        slow = [
            s for s in tracer.spans_named("sql.statement")
            if s.attributes.get("plan")
        ]
        assert slow, "no statement captured a plan at threshold 0"
        assert any(
            "accel" in line for span in slow
            for line in span.attributes["plan"]
        )
        assert tracer.metrics.counter_value("db.slow_statements") > 0

    def test_high_threshold_captures_nothing(self):
        tracer = Tracer(slow_query_threshold=60.0)
        with XmlRelStore.open(scheme="interval", tracer=tracer) as store:
            doc_id = store.store_text(BIB_XML)
            store.query_pres(doc_id, "//title")
        assert all(
            "plan" not in s.attributes
            for s in tracer.spans_named("sql.statement")
        )
        assert tracer.metrics.counter_value("db.slow_statements") == 0


class TestMetrics:
    def test_session_metrics_have_nonzero_core_counters(self):
        tracer = traced_session()
        snapshot = tracer.metrics.snapshot()
        assert snapshot["counters"]["db.statements"] > 0
        assert snapshot["counters"]["store.documents"] == 1
        assert snapshot["counters"]["store.nodes_shredded"] > 0
        assert snapshot["counters"]["db.rows_written"] > 0
        assert snapshot["counters"]["db.transactions"] >= 1
        assert snapshot["counters"]["query.executed"] == 1
        latency = snapshot["histograms"]["db.statement_seconds"]
        assert latency["count"] == snapshot["counters"]["db.statements"]
        assert latency["p50"] is not None
        assert latency["min"] <= latency["p50"] <= latency["max"]

    def test_snapshot_round_trips_through_json(self):
        tracer = traced_session()
        registry = tracer.metrics
        registry.gauge("custom.depth").set(3)
        registry.gauge("custom.depth").set(2)
        assert registry.gauge("custom.depth").high_water == 3
        restored = load_snapshot(registry.snapshot_json())
        assert restored == registry.snapshot()

    def test_histogram_percentiles(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        for value in range(1, 101):
            histogram.observe(float(value))
        # Log-binned estimates: bounded relative error, 2^(1/8) - 1.
        assert histogram.percentile(50) == pytest.approx(50, rel=0.09)
        assert histogram.percentile(99) == pytest.approx(99, rel=0.09)
        # ... and never outside the exact extremes.
        assert 1.0 <= histogram.percentile(0) <= 1.09
        assert 91.0 <= histogram.percentile(100) <= 100.0
        summary = histogram.summary()
        assert summary["count"] == 100
        assert summary["p50"] == histogram.percentile(50)
        assert registry.histogram("empty").percentile(50) is None

    def test_lifetime_quantiles_keep_moving(self):
        """Lifetime quantiles are not frozen at the first N samples."""
        histogram = MetricsRegistry().histogram("h")
        for _ in range(65_536):
            histogram.observe(0.001)
        assert histogram.percentile(50) == pytest.approx(0.001, rel=0.09)
        for _ in range(200_000):
            histogram.observe(1.0)
        assert histogram.percentile(50) == pytest.approx(1.0, rel=0.09)
        assert histogram.summary()["p99"] == pytest.approx(1.0, rel=0.09)

    def test_scrape_time_does_not_grow_with_observations(self):
        """``snapshot()`` is never O(observations): 100x the samples
        within 2x the time (best of several runs each)."""

        def scrape_seconds(samples):
            registry = MetricsRegistry()
            for index in range(10):
                histogram = registry.histogram(f"h{index}")
                for sample in range(samples // 10):
                    histogram.observe(1e-4 * (1 + sample % 97))
            best = float("inf")
            for _ in range(7):
                started = time.perf_counter()
                registry.snapshot()
                to_prometheus(registry)
                best = min(best, time.perf_counter() - started)
            return best

        small = scrape_seconds(1_000)
        large = scrape_seconds(100_000)
        assert large <= 2 * small


class TestExporters:
    def test_jsonl_lines_parse_and_cover_every_span(self):
        tracer = traced_session()
        lines = to_jsonl(tracer).splitlines()
        records = [json.loads(line) for line in lines]
        spans = [r for r in records if r["type"] == "span"]
        assert len(spans) == len(tracer.finished)
        for record in spans:
            assert record["duration"] >= 0.0
            assert record["start"] >= 0.0

    def test_chrome_trace_is_valid_and_ordered(self):
        tracer = traced_session()
        trace = to_chrome_trace(tracer)
        # Round-trip through JSON: the export must be serializable.
        trace = json.loads(json.dumps(trace))
        events = trace["traceEvents"]
        assert events
        assert all(e["ph"] in ("X", "i") for e in events)
        timestamps = [e["ts"] for e in events]
        assert timestamps == sorted(timestamps)
        complete = [e for e in events if e["ph"] == "X"]
        assert {"name", "ts", "dur", "pid", "tid"} <= set(complete[0])


class TestQueryIntrospection:
    def test_explain_returns_sql_and_plan(self):
        with XmlRelStore.open(scheme="interval") as store:
            doc_id = store.store_text(BIB_XML)
            explanation = store.explain(doc_id, "/bib/book/title")
        assert isinstance(explanation, Explanation)
        assert explanation.sql.startswith("SELECT")
        assert explanation.plan
        assert explanation.uses_index("accel_name")
        assert "plan:" in explanation.format()

    def test_query_report_carries_cost_signals(self):
        with XmlRelStore.open(scheme="interval") as store:
            doc_id = store.store_text(BIB_XML)
            report = store.query_report(doc_id, "/bib/book/title")
        assert isinstance(report, QueryReport)
        assert report.row_count == 2 and len(report.pres) == 2
        assert report.join_count == 2
        assert report.sql_length == len(report.sql) > 0
        assert report.translate_seconds >= 0.0
        assert report.execute_seconds >= 0.0
        assert report.plan
        assert "joins:" in report.format()

    def test_explain_works_on_every_schemaless_scheme(self):
        from .conftest import SCHEMALESS_SCHEMES

        for name in SCHEMALESS_SCHEMES:
            with XmlRelStore.open(scheme=name) as store:
                doc_id = store.store_text(BIB_XML)
                explanation = store.explain(doc_id, "/bib/book")
                assert explanation.scheme == name
                assert explanation.plan, name


class TestOverheadGuard:
    def _session_seconds(self, tracer):
        started = time.perf_counter()
        with XmlRelStore.open(scheme="interval", tracer=tracer) as store:
            doc_id = store.store_text(BIB_XML, "bib")
            for _ in range(20):
                store.query_pres(doc_id, "/bib/book/title")
        return time.perf_counter() - started

    def test_traced_run_stays_within_overhead_factor(self):
        # The CI guard: tracing every span and statement must stay
        # within a fixed factor of the untraced run.  Best-of-3 on both
        # sides smooths scheduler noise; the factor is deliberately
        # generous — the budget in DESIGN.md is ~10%, the guard trips on
        # an order-of-magnitude regression, not jitter.
        untraced = min(
            self._session_seconds(None) for _ in range(3)
        )
        traced = min(
            self._session_seconds(Tracer()) for _ in range(3)
        )
        assert traced <= untraced * 3.0 + 0.05, (
            f"tracing overhead too high: traced={traced:.4f}s "
            f"untraced={untraced:.4f}s"
        )


class TestWindowedMetrics:
    """Sliding-window aggregation (satellite of the telemetry plane)."""

    def test_window_ring_counts_rates_and_percentiles(self):
        clock = [1000.0]
        ring = WindowRing(clock=lambda: clock[0])
        for _ in range(95):
            ring.observe(0.010)
        for _ in range(5):
            ring.observe(0.500)  # a 5% slow tail
        summary = ring.summary(60.0)
        assert summary["count"] == 100
        assert summary["qps"] == pytest.approx(100 / 60.0)
        assert summary["min"] == 0.010
        assert summary["max"] == 0.500
        # Log-binned estimates: bounded relative error (~9% per octave
        # sub-bin), so p50 lands near 10ms and p99 in the slow tail.
        assert 0.009 <= summary["p50"] <= 0.012
        assert 0.4 <= summary["p99"] <= 0.500

    def test_window_ring_forgets_old_buckets(self):
        clock = [1000.0]
        ring = WindowRing(clock=lambda: clock[0])
        ring.observe(1.0)
        clock[0] += 30.0
        ring.observe(2.0)
        assert ring.count(60.0) == 2
        clock[0] += 45.0  # first value now 75s old, second 45s old
        assert ring.count(60.0) == 1
        assert ring.summary(60.0)["max"] == 2.0
        clock[0] += 120.0  # everything aged out
        assert ring.count(60.0) == 0
        assert ring.summary(60.0)["p99"] is None

    def test_counter_rate_and_histogram_window(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")
        histogram = registry.histogram("latency")
        for _ in range(10):
            counter.inc()
            histogram.observe(0.005)
        assert counter.window_count(60.0) == 10
        assert counter.rate(60.0) == pytest.approx(10 / 60.0)
        window = histogram.window(60.0)
        assert window["count"] == 10
        assert window["p99"] is not None
        # Lifetime summaries are untouched by the windowed view.
        assert histogram.summary()["count"] == 10

    def test_windows_snapshot_filters_by_prefix(self):
        registry = MetricsRegistry()
        registry.counter("serve.queries").inc(3)
        registry.counter("db.statements").inc(5)
        registry.histogram("serve.query_seconds").observe(0.01)
        snap = registry.windows_snapshot(60.0, prefix="serve.")
        assert set(snap["counters"]) == {"serve.queries"}
        assert set(snap["histograms"]) == {"serve.query_seconds"}
        assert snap["counters"]["serve.queries"]["count"] == 3


class TestSnapshotUnderConcurrency:
    """snapshot(prefix)/load_snapshot round-trip with writer threads."""

    def test_prefix_snapshot_round_trips_while_writers_hammer(self):
        registry = MetricsRegistry()
        stop = threading.Event()

        def writer(worker: int):
            while not stop.is_set():
                registry.counter(f"serve.w{worker}.ops").inc()
                registry.histogram("serve.latency").observe(0.001)
                registry.counter("other.noise").inc()

        threads = [
            threading.Thread(target=writer, args=(worker,))
            for worker in range(4)
        ]
        for thread in threads:
            thread.start()
        try:
            # Snapshots taken mid-hammer must stay internally
            # consistent and JSON-round-trippable.
            for _ in range(20):
                snap = registry.snapshot(prefix="serve.")
                assert all(
                    name.startswith("serve.") for name in snap["counters"]
                )
                assert all(
                    name.startswith("serve.")
                    for name in snap["histograms"]
                )
                restored = load_snapshot(json.dumps(snap))
                assert restored == snap
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        # Quiesced: full snapshot equals its JSON round trip exactly.
        restored = load_snapshot(registry.snapshot_json())
        assert restored == registry.snapshot()


class TestCrossThreadSpans:
    def test_unadopted_worker_root_is_tagged_detached(self):
        tracer = Tracer()

        def worker():
            with tracer.span("orphan"):
                pass

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert tracer.roots[0].attributes.get("detached") is True
        # ...and the tag survives into every export.
        exported = json.loads(to_jsonl(tracer).splitlines()[0])
        assert exported["attributes"]["detached"] is True

    def test_home_thread_root_is_not_tagged(self):
        tracer = Tracer()
        with tracer.span("root"):
            pass
        assert "detached" not in tracer.roots[0].attributes

    def test_adopted_worker_spans_join_the_request_tree(self):
        tracer = Tracer()
        with tracer.span("request") as root:
            context = tracer.capture()
            assert context.span is root
            assert context.request_id.startswith("req-")

            def worker(n):
                with tracer.adopt(context):
                    with tracer.span("work", n=n):
                        pass

            threads = [
                threading.Thread(target=worker, args=(n,))
                for n in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert len(tracer.roots) == 1
        children = tracer.roots[0].children
        assert sorted(c.attributes["n"] for c in children) == [0, 1, 2, 3]
        assert all(c.parent_id == tracer.roots[0].span_id for c in children)
        assert all(c.depth == 1 for c in children)
        assert not any(
            "detached" in span.attributes
            for span in tracer.roots[0].walk()
        )

    def test_adoption_never_closes_the_borrowed_span(self):
        tracer = Tracer()
        with tracer.span("request"):
            context = tracer.capture()

            def rogue():
                with tracer.adopt(context):
                    # A worker double-ending must not close the
                    # borrowed request root out from under its owner.
                    tracer.end_span(context.span)

            thread = threading.Thread(target=rogue)
            thread.start()
            thread.join()
            assert tracer.current_span is context.span
        assert len(tracer.roots) == 1
        assert tracer.roots[0].finished

    def test_disabled_tracer_adoption_is_a_noop(self):
        context = NULL_TRACER.capture()
        assert context.span is None
        with NULL_TRACER.adopt(context) as span:
            assert span is None


class TestFullTelemetryOverheadGuard:
    """Satellite: tracing + windows + event log within a fixed budget
    vs NULL_TRACER on the warm-query path."""

    def _warm_queries_seconds(self, tracer, request_log):
        from repro.serve import ShardedStore

        with tempfile.TemporaryDirectory() as tmp:
            with ShardedStore.open(
                tmp + "/store",
                scheme="interval",
                shards=2,
                placement="round_robin",
                tracer=tracer,
                request_log=request_log,
            ) as store:
                doc_id = store.store_text(BIB_XML, "bib")
                store.query_pres(doc_id, "/bib/book/title")  # warm plans
                started = time.perf_counter()
                for _ in range(100):
                    store.query_pres(doc_id, "/bib/book/title")
                return time.perf_counter() - started

    def test_full_telemetry_stays_within_overhead_budget(self):
        # Same shape as TestOverheadGuard, with the full plane on: span
        # tree + windowed metrics + wide-event log.  The per-request span
        # cost is perfbench's `driver.trace_overhead_share` row; this
        # guard trips on order-of-magnitude regressions, not jitter.
        baseline = min(
            self._warm_queries_seconds(None, None) for _ in range(3)
        )
        with tempfile.TemporaryDirectory() as tmp:
            telemetry = min(
                self._warm_queries_seconds(
                    Tracer(), RequestLog(path=tmp + "/events.jsonl")
                )
                for _ in range(3)
            )
        assert telemetry <= baseline * 3.0 + 0.05, (
            f"telemetry overhead too high: on={telemetry:.4f}s "
            f"off={baseline:.4f}s"
        )
