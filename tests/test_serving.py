"""Concurrent serving layer: thread safety, pools, sharding, scatter-gather."""

import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, as_completed, wait
from dataclasses import replace

import pytest

from repro.errors import (
    DeadlineExceeded,
    DocumentNotFoundError,
    Overloaded,
    ReadOnlyDatabaseError,
    ShardError,
    StorageError,
)
from repro.obs.events import RequestLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import RequestContext, Tracer
from repro.relational.database import Database
from repro.relational.plancache import PlanCache
from repro.reliability.faults import ShardFaultPolicy
from repro.serve import ConnectionPool, ShardedStore
from repro.serve import executor as executor_module
from repro.xml.parser import parse_document
from repro.xpath import evaluate_nodes

from .conftest import BIB_XML, free_slots

THREADS = 8


def hammer(worker, threads=THREADS):
    """Run *worker(thread_index)* on N threads; re-raise any failure."""
    errors = []
    barrier = threading.Barrier(threads)

    def run(index):
        try:
            barrier.wait()
            worker(index)
        except BaseException as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    pool = [
        threading.Thread(target=run, args=(index,))
        for index in range(threads)
    ]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    if errors:
        raise errors[0]


# -- thread-safe primitives ------------------------------------------------------


class TestThreadSafePrimitives:
    def test_metrics_hammer_loses_no_updates(self):
        registry = MetricsRegistry()
        per_thread = 10_000

        def worker(index):
            counter = registry.counter("hits")
            gauge = registry.gauge("level")
            histogram = registry.histogram("lat")
            for i in range(per_thread):
                counter.inc()
                gauge.add(1)
                histogram.observe(float(i % 7))

        hammer(worker)
        snap = registry.snapshot()
        assert snap["counters"]["hits"] == THREADS * per_thread
        assert snap["gauges"]["level"]["value"] == THREADS * per_thread
        assert snap["histograms"]["lat"]["count"] == THREADS * per_thread

    def test_plan_cache_hammer_stays_consistent(self):
        cache = PlanCache(capacity=32)
        per_thread = 2_000

        def worker(index):
            for i in range(per_thread):
                key = ("scheme", 0, f"//x[{i % 40}]")
                if cache.get(key) is None:
                    cache.put(key, f"plan-{index}-{i}")

        hammer(worker)
        stats = cache.stats()
        assert len(cache) <= 32
        assert stats["hits"] + stats["misses"] == THREADS * per_thread

    def test_tracer_spans_from_worker_threads(self):
        tracer = Tracer(enabled=True)

        def worker(index):
            for i in range(200):
                with tracer.span(f"work-{index}") as span:
                    span.set(iteration=i)
                    with tracer.span("inner"):
                        pass

        hammer(worker)
        # Every worker's spans land as their own roots; none are lost.
        assert len(tracer.finished) == THREADS * 200 * 2
        assert len(tracer.roots) == THREADS * 200


# -- read-only databases ---------------------------------------------------------


class TestReadOnlyDatabase:
    def test_reads_work_and_writes_are_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "ro.db")
        with Database(path, profile="durable") as writer:
            writer.execute("CREATE TABLE t (x INTEGER)")
            writer.execute("INSERT INTO t VALUES (41)")
        reader = Database(path, read_only=True)
        try:
            assert reader.scalar("SELECT x FROM t") == 41
            with pytest.raises(ReadOnlyDatabaseError):
                reader.execute("INSERT INTO t VALUES (42)")
            with pytest.raises(ReadOnlyDatabaseError):
                reader.executemany("UPDATE t SET x = ?", [(1,)])
        finally:
            reader.close()
        with Database(path) as writer:
            assert writer.scalar("SELECT count(*) FROM t") == 1

    def test_read_only_memory_database_is_rejected(self):
        with pytest.raises(StorageError):
            Database(":memory:", read_only=True)

    def test_reader_sees_writer_commits_under_wal(self, tmp_path):
        path = os.path.join(tmp_path, "wal.db")
        writer = Database(path, profile="durable")
        writer.execute("CREATE TABLE t (x INTEGER)")
        reader = Database(path, read_only=True)
        try:
            writer.execute("INSERT INTO t VALUES (1)")
            assert reader.scalar("SELECT count(*) FROM t") == 1
        finally:
            reader.close()
            writer.close()


# -- connection pools ------------------------------------------------------------


def make_shard_file(tmp_path, name="shard.db", docs=2):
    path = os.path.join(tmp_path, name)
    with Database(path, profile="durable") as db:
        from repro.core.registry import create_scheme

        scheme = create_scheme("interval", db)
        for i in range(docs):
            scheme.store(parse_document(BIB_XML), f"doc-{i}")
    return path


class TestConnectionPool:
    def test_acquire_release_reuses_connections(self, tmp_path):
        path = make_shard_file(tmp_path)
        metrics = MetricsRegistry()
        with ConnectionPool(path, "interval", size=2, metrics=metrics,
                            name="p") as pool:
            with pool.connection() as session:
                assert session.scheme.query_pres(1, "//book")
            with pool.connection():
                pass
            assert pool.stats()["open"] == 1  # LIFO reuse, no second build
            snap = metrics.snapshot()
            assert snap["counters"]["pool.p.acquires"] == 2
            assert snap["counters"]["pool.p.releases"] == 2
            assert snap["gauges"]["pool.p.in_use"]["value"] == 0

    def test_pool_connections_share_one_plan_cache(self, tmp_path):
        path = make_shard_file(tmp_path)
        with ConnectionPool(path, "interval", size=2) as pool:
            a = pool.acquire()
            b = pool.acquire()
            try:
                assert a.db is not b.db
                assert a.db.plan_cache is pool.plan_cache
                assert b.db.plan_cache is pool.plan_cache
            finally:
                pool.release(a)
                pool.release(b)

    def test_exhausted_pool_raises_overloaded(self, tmp_path):
        path = make_shard_file(tmp_path)
        metrics = MetricsRegistry()
        with ConnectionPool(path, "interval", size=1,
                            acquire_timeout=0.05, metrics=metrics,
                            name="p") as pool:
            session = pool.acquire()
            try:
                started = time.monotonic()
                with pytest.raises(Overloaded):
                    pool.acquire()
                assert time.monotonic() - started < 1.0
            finally:
                pool.release(session)
            assert metrics.snapshot()["counters"]["pool.p.timeouts"] == 1
            pool.acquire()  # released connection is available again

    def test_fresh_connection_health_failure_is_shard_down(self, tmp_path):
        path = make_shard_file(tmp_path)
        policy = ShardFaultPolicy()
        policy.fail_shard(0)
        metrics = MetricsRegistry()
        with ConnectionPool(path, "interval", size=2, metrics=metrics,
                            name="p",
                            factory=policy.factory(0)) as pool:
            with pytest.raises(StorageError, match="shard down"):
                pool.acquire()
            snap = metrics.snapshot()
            assert snap["counters"]["pool.p.health_failures"] == 1

    def test_stale_connection_is_discarded_and_rebuilt(self, tmp_path):
        path = make_shard_file(tmp_path)
        policy = ShardFaultPolicy()
        with ConnectionPool(path, "interval", size=2,
                            factory=policy.factory(0)) as pool:
            with pool.connection():
                pass  # one healthy idle connection
            policy.fail_shard(0)
            with pytest.raises(StorageError):
                pool.acquire()  # stale discarded, fresh rebuild also fails
            policy.heal_all()
            with pool.connection() as session:
                assert session.db.scalar("SELECT 1") == 1

    def test_concurrent_acquires_stay_within_bound(self, tmp_path):
        path = make_shard_file(tmp_path)
        with ConnectionPool(path, "interval", size=3,
                            acquire_timeout=5.0) as pool:

            def worker(index):
                for _ in range(20):
                    with pool.connection() as session:
                        assert session.db.scalar("SELECT 1") == 1

            hammer(worker)
            assert pool.stats()["open"] <= 3

    def test_release_racing_close_never_leaks_a_connection(self, tmp_path):
        # Regression for a window the concurrency audit surfaced:
        # release() checks _closed, then close() flips the flag and
        # drains the idle queue, then release() puts the session back —
        # leaving an open connection idling in a closed pool forever.
        # Reproduce the interleaving deterministically by closing the
        # pool just before release's put.
        path = make_shard_file(tmp_path)
        pool = ConnectionPool(path, "interval", size=1)
        session = pool.acquire()
        real_put = pool._idle.put

        def close_then_put(candidate):
            pool.close()  # lands between release's check and its put
            real_put(candidate)

        pool._idle.put = close_then_put
        pool.release(session)
        assert pool.stats()["idle"] == 0
        assert pool.stats()["open"] == 0
        with pytest.raises(StorageError):
            pool.acquire()


# -- sharded stores --------------------------------------------------------------


SMALL_XML = "<bib><book year='{y}'><title>T{y}</title></book></bib>"


def open_sharded_store(tmp_path, **kwargs):
    kwargs.setdefault("scheme", "interval")
    kwargs.setdefault("shards", 3)
    return ShardedStore.open(os.path.join(tmp_path, "store.d"), **kwargs)


class TestShardedStore:
    def test_roundtrip_and_routing(self, tmp_path):
        with open_sharded_store(tmp_path) as store:
            ids = [
                store.store_text(SMALL_XML.format(y=2000 + i), f"doc-{i}")
                for i in range(9)
            ]
            assert ids == list(range(1, 10))  # dense global ids
            assert sum(store.shard_counts().values()) == 9
            for i, doc_id in enumerate(ids):
                record = store.resolve(doc_id)
                assert store.query_xml(doc_id, "/bib/book/title") == [
                    f"<title>T{2000 + i}</title>"
                ]
                assert record.shard < 3

    def test_round_robin_placement_is_even(self, tmp_path):
        with open_sharded_store(tmp_path, placement="round_robin") as store:
            for i in range(9):
                store.store_text(SMALL_XML.format(y=i), f"d{i}")
            assert store.shard_counts() == {0: 3, 1: 3, 2: 3}

    def test_hash_placement_is_stable_across_reopen(self, tmp_path):
        with open_sharded_store(tmp_path) as store:
            ids = [
                store.store_text(SMALL_XML.format(y=i), f"d{i}")
                for i in range(6)
            ]
            before = {i: store.resolve(i).shard for i in ids}
        with open_sharded_store(tmp_path) as store:
            after = {i: store.resolve(i).shard for i in ids}
            assert after == before
            # placement function still agrees with the persisted map
            for record in store.documents():
                assert store.place(record.name) == record.shard

    def test_store_many_partitions_batches(self, tmp_path):
        with open_sharded_store(tmp_path, placement="round_robin") as store:
            docs = [parse_document(SMALL_XML.format(y=i)) for i in range(7)]
            ids = store.store_many(docs, names=[f"n{i}" for i in range(7)])
            assert ids == list(range(1, 8))
            assert store.shard_counts() == {0: 3, 1: 2, 2: 2}
            result = store.query_all("//book")
            assert result.doc_ids() == ids

    def test_delete_frees_the_owning_shard(self, tmp_path):
        with open_sharded_store(tmp_path) as store:
            doc = store.store_text(SMALL_XML.format(y=1), "a")
            keep = store.store_text(SMALL_XML.format(y=2), "b")
            store.delete(doc)
            with pytest.raises(DocumentNotFoundError):
                store.resolve(doc)
            assert store.query_all("//book").doc_ids() == [keep]

    def test_reopen_with_different_config_is_rejected(self, tmp_path):
        with open_sharded_store(tmp_path, shards=3):
            pass
        with pytest.raises(StorageError, match="config mismatch"):
            open_sharded_store(tmp_path, shards=4)
        with pytest.raises(StorageError, match="config mismatch"):
            open_sharded_store(tmp_path, scheme="edge")

    def test_reconstruct_matches_input(self, tmp_path):
        with open_sharded_store(tmp_path, scheme="dewey") as store:
            doc_id = store.store_text(BIB_XML, "bib")
            from repro.xml.dom import deep_equal

            assert deep_equal(
                store.reconstruct(doc_id), parse_document(BIB_XML)
            )


# -- scatter-gather --------------------------------------------------------------


def open_rr(tmp_path, docs=6, **kwargs):
    """Round-robin store with *docs* documents on known shards."""
    store = open_sharded_store(
        tmp_path, placement="round_robin", **kwargs
    )
    ids = [
        store.store_text(SMALL_XML.format(y=i), f"d{i}") for i in range(docs)
    ]
    return store, ids


class TestScatterGather:
    def test_doc_scoped_query_touches_exactly_one_shard(self, tmp_path):
        store, ids = open_rr(tmp_path)
        with store:
            metrics = store.metrics
            # warm nothing; query doc on shard 1 (round robin: d1)
            target = ids[1]
            assert store.resolve(target).shard == 1
            pres = store.query_pres(target, "//title")
            assert len(pres) == 1
            snap = metrics.snapshot()
            assert snap["counters"]["serve.doc_scoped_queries"] == 1
            assert snap["counters"].get("pool.shard1.acquires", 0) == 1
            assert "pool.shard0.acquires" not in snap["counters"]
            assert "pool.shard2.acquires" not in snap["counters"]

    def test_scatter_merges_in_doc_then_document_order(self, tmp_path):
        store, ids = open_rr(tmp_path)
        with store:
            result = store.query_all("//book | //title")
            assert result.shards_queried == 3
            assert list(result.rows) == sorted(result.rows)
            assert result.doc_ids() == ids  # global id order
            # every doc contributes its two nodes in pre order
            for doc_id in ids:
                pres = [pre for d, pre in result.rows if d == doc_id]
                assert pres == sorted(pres)

    def test_empty_shard_contributes_nothing(self, tmp_path):
        with open_sharded_store(tmp_path, placement="round_robin") as store:
            a = store.store_text(SMALL_XML.format(y=1), "a")  # shard 0
            b = store.store_text(SMALL_XML.format(y=2), "b")  # shard 1
            # shard 2 has no documents
            result = store.query_all("//book")
            assert result.shards_queried == 3
            assert result.doc_ids() == [a, b]
            assert not result.partial

    def test_faulted_shard_partial_mode_flags_and_survives(self, tmp_path):
        policy = ShardFaultPolicy()
        store, ids = open_rr(
            tmp_path, on_shard_error="partial", fault_policy=policy
        )
        with store:
            policy.fail_shard(1)
            result = store.query_all("//book")
            assert result.partial
            assert [shard for shard, _ in result.failed_shards] == [1]
            survivors = {store.resolve(d).shard for d in result.doc_ids()}
            assert survivors == {0, 2}
            policy.heal_all()
            healed = store.query_all("//book")
            assert not healed.partial
            assert healed.doc_ids() == ids

    def test_faulted_shard_fail_mode_raises_shard_error(self, tmp_path):
        policy = ShardFaultPolicy()
        store, _ = open_rr(
            tmp_path, on_shard_error="fail", fault_policy=policy
        )
        with store:
            policy.fail_shard(2)
            with pytest.raises(ShardError) as excinfo:
                store.query_all("//book")
            assert excinfo.value.shard == 2

    def test_deadline_exceeded_mid_fanout(self, tmp_path):
        policy = ShardFaultPolicy()
        store, _ = open_rr(tmp_path, fault_policy=policy)
        with store:
            # Warm every pool — with another XPath than the timed one,
            # which must execute, not hit the result cache.
            store.query_all("//title")
            policy.stall_shard(1, 0.5)
            started = time.monotonic()
            with pytest.raises(DeadlineExceeded) as excinfo:
                store.query_all("//book", deadline=0.1)
            assert time.monotonic() - started < 0.45  # did not wait out the stall
            assert excinfo.value.deadline_seconds == pytest.approx(0.1)
            snap = store.metrics.snapshot()
            assert snap["counters"]["serve.deadline_exceeded"] >= 1

    def test_doc_scoped_deadline_also_raises(self, tmp_path):
        policy = ShardFaultPolicy()
        store, ids = open_rr(tmp_path, fault_policy=policy)
        with store:
            # Warm shard 0's pool — with another XPath than the stalled
            # one, which must execute, not hit the result cache.
            store.query_pres(ids[0], "//title")
            policy.stall_shard(0, 0.4)
            with pytest.raises(DeadlineExceeded):
                store.query_pres(ids[0], "//book", deadline=0.05)

    def test_overloaded_when_in_flight_limit_hit(self, tmp_path):
        policy = ShardFaultPolicy()
        store, ids = open_rr(tmp_path, max_in_flight=1, fault_policy=policy)
        with store:
            # Warm shard 0's pool with another XPath: the background
            # query has to execute to hold its slot through the stall.
            store.query_pres(ids[0], "//title")
            policy.stall_shard(0, 0.8)
            background_error = []

            def slow_query():
                try:
                    store.query_pres(ids[0], "//book")
                except Exception as error:  # noqa: BLE001
                    background_error.append(error)

            thread = threading.Thread(target=slow_query)
            thread.start()
            try:
                deadline = time.monotonic() + 2.0
                while time.monotonic() < deadline:
                    if store.metrics.gauge("serve.in_flight").value == 1:
                        break
                    time.sleep(0.005)
                else:
                    pytest.fail("background query never became in-flight")
                with pytest.raises(Overloaded):
                    store.query_pres(ids[1], "//book")
                snap = store.metrics.snapshot()
                assert snap["counters"]["serve.overloaded"] == 1
            finally:
                thread.join()
            assert not background_error

    def test_concurrent_readers_get_consistent_answers(self, tmp_path):
        store, ids = open_rr(tmp_path, docs=6, pool_size=2)
        with store:
            expected = store.query_all("//title").rows

            def worker(index):
                for _ in range(10):
                    doc = ids[index % len(ids)]
                    assert len(store.query_pres(doc, "//title")) == 1
                    assert store.query_all("//title").rows == expected

            hammer(worker)
            snap = store.metrics.snapshot()
            assert snap["gauges"]["serve.in_flight"]["value"] == 0
            for shard in range(3):
                gauge = snap["gauges"].get(f"pool.shard{shard}.in_use")
                assert gauge is None or gauge["value"] == 0

    def test_writes_visible_to_subsequent_scatter(self, tmp_path):
        store, ids = open_rr(tmp_path, docs=3)
        with store:
            assert len(store.query_all("//book").rows) == 3
            new = store.store_text(SMALL_XML.format(y=99), "late")
            result = store.query_all("//book")
            assert new in result.doc_ids()
            assert len(result.rows) == 4


# -- one request path: both doors, every exit -------------------------------------


def drive_query(store, xpath, targets, **kwargs):
    """The blocking door."""
    return store.executor.query(xpath, targets, **kwargs)


def drive_stream(store, xpath, targets, **kwargs):
    """The non-blocking door, driven the way the gateway drives it:
    shards collected in completion order inside ``with stream``."""
    stream = store.executor.stream(xpath, targets, **kwargs)
    with stream:
        pending = set(stream.futures)
        while pending:
            done, pending = wait(
                pending,
                timeout=stream.deadline_remaining(),
                return_when=FIRST_COMPLETED,
            )
            if not done:
                raise stream.expire()
            for future in done:
                stream.collect(future)
    return stream.result


DOORS = {"query": drive_query, "stream": drive_stream}

#: exit -> (store options, expected raise, expected outcome)
EXITS = {
    "ok": ({}, None, "ok"),
    "partial": ({"on_shard_error": "partial"}, None, "partial"),
    "shed": ({}, Overloaded, "overloaded"),
    "deadline": ({}, DeadlineExceeded, "deadline_exceeded"),
    "fail_fast": ({"on_shard_error": "fail"}, ShardError, "shard_error"),
    "raw_error": ({}, RuntimeError, "error"),
    "empty": ({}, None, "ok"),
    # The lookup-phase lane: every shard a full result-cache hit,
    # answered (or refused) by the thread that opened the stream.
    "hit": ({}, None, "ok"),
    "hit_deadline": ({}, DeadlineExceeded, "deadline_exceeded"),
}

MAX_IN_FLIGHT = 2


def evaluator_rows(ids, xpath):
    """The in-memory evaluator's answer over the ``open_rr`` corpus,
    as ``(doc_id, pre)`` in document then document order."""
    return tuple(
        (doc_id, node.order_key)
        for index, doc_id in enumerate(ids)
        for node in evaluate_nodes(
            parse_document(SMALL_XML.format(y=index)), xpath
        )
    )


@pytest.fixture
def opened_streams(monkeypatch):
    """Every ScatterStream either door opens, shed ones included."""
    opened = []

    class Recorded(executor_module.ScatterStream):
        def __init__(self, *args):
            opened.append(self)
            super().__init__(*args)

    monkeypatch.setattr(executor_module, "ScatterStream", Recorded)
    return opened


class TestOneRequestPath:
    @pytest.mark.parametrize("exit_name", EXITS)
    @pytest.mark.parametrize("door", DOORS)
    def test_every_exit_releases_the_slot_and_accounts_once(
        self, tmp_path, door, exit_name, opened_streams
    ):
        self.exit_once(tmp_path, door, exit_name, opened_streams, False)

    @pytest.mark.parametrize(
        "exit_name", [name for name in EXITS if name != "empty"]
    )
    @pytest.mark.parametrize("door", DOORS)
    def test_every_exit_of_a_single_document_request_does_too(
        self, tmp_path, door, exit_name, opened_streams
    ):
        self.exit_once(tmp_path, door, exit_name, opened_streams, True)

    def exit_once(
        self, tmp_path, door, exit_name, opened_streams, one_document
    ):
        """One request — over every document, or the one on the shard
        the faults hit — through *door* to *exit_name*: slot released,
        one latency sample, one wide event, ``finish`` idempotent."""
        options, raises, outcome = EXITS[exit_name]
        policy = ShardFaultPolicy()
        log = RequestLog(capacity=16)
        store, ids = open_rr(
            tmp_path, max_in_flight=MAX_IN_FLIGHT, fault_policy=policy,
            request_log=log, **options,
        )
        with store:
            executor = store.executor
            targets = store.targets(ids[1] if one_document else None)
            if exit_name == "empty":
                targets = {}
            assert not one_document or list(targets) == [1]
            store.query_all("//title")  # warm every pool
            kwargs = {}
            held = 0
            if exit_name in ("partial", "fail_fast"):
                policy.fail_shard(1)
            elif exit_name == "raw_error":
                policy.fail_shard(1, error=RuntimeError("not an XmlRelError"))
            elif exit_name == "deadline":
                policy.stall_shard(1, 0.3)
                kwargs["deadline"] = 0.05
            elif exit_name == "shed":
                while executor._gate.acquire(blocking=False):
                    held += 1
            elif exit_name.startswith("hit"):
                store.executor.query("//book", targets)
                if exit_name == "hit_deadline":
                    kwargs["deadline"] = 0.0
            seconds = store.metrics.histogram("serve.query_seconds")
            observed, logged = seconds.count, len(log.tail())
            del opened_streams[:]
            try:
                if raises is None:
                    result = DOORS[door](store, "//book", targets, **kwargs)
                    assert result.partial == (exit_name == "partial")
                    assert result.shards_queried == len(targets)
                else:
                    with pytest.raises(raises):
                        DOORS[door](store, "//book", targets, **kwargs)
            finally:
                for _ in range(held):
                    executor._gate.release()

            def settled():
                assert store.metrics.gauge("serve.in_flight").value == 0
                assert free_slots(executor) == MAX_IN_FLIGHT
                assert seconds.count == observed + 1
                events = log.tail()[logged:]
                assert [e["event"] for e in events] == ["query"]
                assert events[0]["outcome"] == outcome

            settled()
            # finish() again — bare or with a late error — changes nothing.
            (stream,) = opened_streams
            if exit_name.startswith("hit"):
                # Never left the opening thread: nothing was submitted.
                assert not stream.futures
            first = stream.result
            assert stream.finish() is first
            assert stream.finish(RuntimeError("late")) is first
            settled()

    @pytest.mark.parametrize("door", DOORS)
    def test_shed_request_keeps_its_upstream_request_id(self, tmp_path, door):
        log = RequestLog(capacity=16)
        store, _ = open_rr(tmp_path, max_in_flight=1, request_log=log)
        with store:
            assert store.executor._gate.acquire(blocking=False)
            try:
                with pytest.raises(Overloaded):
                    DOORS[door](
                        store, "//book", store.targets(),
                        ctx=RequestContext(request_id="req-UPSTREAM"),
                    )
            finally:
                store.executor._gate.release()
            event = log.tail()[-1]
            assert event["outcome"] == "overloaded"
            assert event["request_id"] == "req-UPSTREAM"

    @pytest.mark.parametrize(
        "shape", ("doc_scoped", "scatter", "partial")
    )
    def test_both_doors_give_one_answer_and_one_event_shape(
        self, tmp_path, shape
    ):
        policy = ShardFaultPolicy()
        log = RequestLog(capacity=16)
        store, ids = open_rr(
            tmp_path,
            fault_policy=policy,
            request_log=log,
            on_shard_error="partial" if shape == "partial" else "fail",
        )
        xpath = "//book | //title"
        with store:
            targets = store.targets()
            expected = evaluator_rows(ids, xpath)
            if shape == "doc_scoped":
                targets = store.targets(ids[1])
                expected = tuple(row for row in expected if row[0] == ids[1])
            store.executor.query(xpath, targets)  # warm the plans
            if shape == "partial":
                policy.fail_shard(1)
                expected = tuple(
                    row for row in expected
                    if store.resolve(row[0]).shard != 1
                )
            answers, events = {}, {}
            for door, drive in DOORS.items():
                for pool in store.pools.values():  # both doors execute
                    pool.result_cache.invalidate()
                answers[door] = drive(store, xpath, targets)
                events[door] = log.tail()[-1]

            def comparable(result):
                return replace(result, elapsed_seconds=0.0)

            assert answers["query"].rows == expected
            assert comparable(answers["query"]) == comparable(
                answers["stream"]
            )
            if shape == "partial":
                assert [s for s, _ in answers["query"].failed_shards] == [1]

            timing = {
                "request_id", "ts", "elapsed_seconds",
                "deadline_slack_seconds",
            }

            def stable(record):
                return {
                    key: value for key, value in record.items()
                    if key not in timing and key != "per_shard"
                }

            by_query, by_stream = events["query"], events["stream"]
            assert set(by_query) == set(by_stream)
            assert stable(by_query) == stable(by_stream)
            assert [set(entry) for entry in by_query["per_shard"]] == [
                set(entry) for entry in by_stream["per_shard"]
            ]
            assert [stable(entry) for entry in by_query["per_shard"]] == [
                stable(entry) for entry in by_stream["per_shard"]
            ]

    def test_run_on_shard_takes_the_slot_and_gives_it_back(self, tmp_path):
        store, ids = open_rr(tmp_path, max_in_flight=MAX_IN_FLIGHT)
        with store:
            executor = store.executor
            shard = store.resolve(ids[0]).shard
            sessions = []

            def fn(session):
                sessions.append(session)
                assert free_slots(executor) == MAX_IN_FLIGHT - 1
                if len(sessions) == 1:
                    raise StorageError("the shard cannot answer")
                return "answered"

            with pytest.raises(StorageError, match="cannot answer"):
                executor.run_on_shard(shard, fn)
            assert executor.run_on_shard(shard, fn) == "answered"
            assert len(sessions) == 2
            assert store.pools[shard].stats()["open"] >= 1
            assert store.metrics.gauge(f"pool.shard{shard}.in_use").value == 0
            assert store.metrics.gauge("serve.in_flight").value == 0
            assert free_slots(executor) == MAX_IN_FLIGHT

    def test_fast_lane_reads_on_the_caller_and_stream_never_does(
        self, tmp_path, monkeypatch
    ):
        tracer = Tracer()
        store, ids = open_rr(tmp_path, tracer=tracer)
        with store:
            me = threading.get_ident()
            tracer.reset()
            store.executor.query("//title", store.targets(ids[0]))
            (root,) = [r for r in tracer.roots if r.name == "serve.query"]
            names = [span.name for span in root.walk()]
            assert "serve.execute" in names and "sql.statement" in names
            # Doc-scoped query(): the whole read, SQL included, ran here.
            assert {span.thread_id for span in root.walk()} == {me}

            acquirers = []
            for pool in store.pools.values():
                def recording(timeout=None, acquire=pool.acquire):
                    acquirers.append(threading.get_ident())
                    return acquire(timeout)

                monkeypatch.setattr(pool, "acquire", recording)

            def streamed(targets):
                """One stream() driven to its end: the stream, and its
                request's spans by name."""
                tracer.reset()
                stream = store.executor.stream("//title", targets)
                owed = len(stream.futures)
                with stream:
                    for future in as_completed(stream.futures, timeout=10):
                        stream.collect(future)
                assert stream.result.rows
                (root,) = [
                    r for r in tracer.roots if r.name == "serve.query"
                ]
                spans = {}
                for span in root.walk():
                    spans.setdefault(span.name, []).append(span)
                return owed, spans

            shapes = (store.targets(ids[0]), store.targets())
            # Cold, one document or all: every shard owes its read to
            # the worker pool.
            for targets in shapes:
                for pool in store.pools.values():
                    pool.result_cache.invalidate()
                owed, spans = streamed(targets)
                assert owed == len(targets)
                assert spans["sql.statement"]
                for name in ("serve.shard", "serve.execute", "sql.statement"):
                    assert me not in {s.thread_id for s in spans[name]}
            # No statement and no acquire ever ran on stream()'s caller.
            assert acquirers and me not in acquirers
            # Warm, one document or all: every shard is a full hit,
            # answered right here — nothing submitted, nothing
            # acquired, no statement.
            acquired = len(acquirers)
            for targets in shapes:
                owed, spans = streamed(targets)
                assert owed == 0
                assert "sql.statement" not in spans
                assert {s.thread_id for s in spans["serve.shard"]} == {me}
                assert {
                    s.attributes["result_cache"]
                    for s in spans["serve.execute"]
                } == {"hit"}
            # So is a warm doc-scoped query(): same lane, no statement.
            tracer.reset()
            store.executor.query("//title", store.targets(ids[0]))
            (root,) = [r for r in tracer.roots if r.name == "serve.query"]
            assert "sql.statement" not in [s.name for s in root.walk()]
            assert {span.thread_id for span in root.walk()} == {me}
            assert len(acquirers) == acquired
