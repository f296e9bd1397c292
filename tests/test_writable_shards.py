"""Writable shards: serialized updates, rebalancing, recovery."""

import threading

import pytest

from repro.errors import StorageError, UpdateError
from repro.obs.events import RequestLog
from repro.obs.metrics import MetricsRegistry
from repro.relational.database import Database
from repro.relational.retry import RetryPolicy
from repro.relational.shardmap import ShardMap
from repro.reliability.faults import ShardFaultPolicy, SimulatedCrash
from repro.serve import ConnectionPool, ShardedStore
from repro.xml import parse_fragment

SMALL_XML = "<bib><book><title>one</title></book><book><title>two</title></book></bib>"
FRAGMENT = "<book><title>fresh</title></book>"


def open_store(directory, **kwargs):
    kwargs.setdefault("scheme", "interval")
    kwargs.setdefault("shards", 2)
    kwargs.setdefault("placement", "round_robin")
    kwargs.setdefault("profile", "bulk_load")
    kwargs.setdefault("pool_size", 2)
    return ShardedStore.open(str(directory), **kwargs)


# -- serialized online updates ---------------------------------------------------


class TestWritableShards:
    def test_subtree_insert_and_delete_roundtrip(self, tmp_path):
        with open_store(tmp_path) as store:
            doc = store.store_text(SMALL_XML, name="a")
            root = store.query_pres(doc, "/bib")[0]
            stats = store.insert_subtree(
                doc, root, parse_fragment(FRAGMENT), index=0
            )
            assert stats.rows_inserted > 0
            assert len(store.query_pres(doc, "/bib/book")) == 3
            assert "fresh" in store.reconstruct_xml(doc)
            victim = store.query_pres(doc, "/bib/book")[0]
            store.delete_subtree(doc, victim)
            assert len(store.query_pres(doc, "/bib/book")) == 2
            assert "fresh" not in store.reconstruct_xml(doc)
            assert store.verify(doc).ok

    def test_updates_on_unsupporting_scheme_raise(self, tmp_path):
        with open_store(tmp_path, scheme="xrel") as store:
            doc = store.store_text(SMALL_XML, name="a")
            assert not store.supports_updates
            with pytest.raises(UpdateError, match="does not implement"):
                store.insert_subtree(
                    doc, 1, parse_fragment(FRAGMENT), index=0
                )

    def test_concurrent_updates_serialize_per_shard(self, tmp_path):
        """Many threads inserting into one document: the shard's
        single-writer lock serializes them, none is lost, and readers
        interleave freely."""
        threads = 6
        per_thread = 3
        with open_store(tmp_path) as store:
            doc = store.store_text(SMALL_XML, name="a")
            root = store.query_pres(doc, "/bib")[0]
            barrier = threading.Barrier(threads)
            errors = []

            def writer(index):
                try:
                    barrier.wait()
                    for _ in range(per_thread):
                        store.insert_subtree(
                            doc, root, parse_fragment(FRAGMENT), index=0
                        )
                        store.query_pres(doc, "/bib/book/title")
                except BaseException as error:  # noqa: BLE001
                    errors.append(error)

            pool = [
                threading.Thread(target=writer, args=(i,))
                for i in range(threads)
            ]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join()
            assert not errors
            books = store.query_pres(doc, "/bib/book")
            assert len(books) == 2 + threads * per_thread
            assert store.verify(doc).ok
            assert (
                store.metrics.counter_value("serve.subtree_inserts")
                == threads * per_thread
            )


# -- shard-local plan epochs -----------------------------------------------------


class TestShardLocalPlanEpochs:
    def test_write_bumps_only_owning_shards_epoch(self, tmp_path):
        """A write on shard A must not invalidate plans cached for
        shard B (binary's translations depend on stored data, so its
        writes do bump the owning shard's epoch)."""
        with open_store(tmp_path, scheme="binary") as store:
            doc_a = store.store_text(SMALL_XML, name="a")  # shard 0
            doc_b = store.store_text(SMALL_XML, name="b")  # shard 1
            epoch_b = store.pools[1].epoch
            root = store.query_pres(doc_a, "/bib")[0]
            store.insert_subtree(
                doc_a, root, parse_fragment(FRAGMENT), index=0
            )
            assert store.pools[0].epoch > 0
            assert store.pools[1].epoch == epoch_b
            assert doc_b  # placement really was round-robin

    def test_partial_mode_keeps_other_shards_plans_warm(self, tmp_path):
        """Partial-results degraded mode x shard-local epochs: kill
        shard 0 after a write to it; shard 1 keeps answering scatter
        queries from its still-valid plan cache."""
        policy = ShardFaultPolicy()
        with open_store(
            tmp_path,
            scheme="binary",
            fault_policy=policy,
            on_shard_error="partial",
        ) as store:
            doc_a, doc_b, _, doc_d, _, doc_f = (
                store.store_text(SMALL_XML, name=name) for name in "abcdef"
            )  # a, c, e on shard 0; b, d, f on shard 1
            # Warm shard 1's plan cache: one document each, because a
            # repeated (document, xpath) is a result-cache hit and
            # plans nothing.  doc_f stays unread, so the scatter below
            # still has a statement to plan on shard 1.
            store.query_pres(doc_b, "/bib/book/title")
            store.query_pres(doc_d, "/bib/book/title")
            warm = store.pools[1].plan_cache.stats()
            assert warm["hits"] >= 1
            # Write on shard 0 (bumps only shard 0's epoch) then take
            # shard 0 down entirely.
            root = store.query_pres(doc_a, "/bib")[0]
            store.insert_subtree(
                doc_a, root, parse_fragment(FRAGMENT), index=0
            )
            policy.fail_shard(0)
            result = store.query_all("/bib/book/title")
            assert result.partial
            assert [shard for shard, _ in result.failed_shards] == [0]
            assert {doc for doc, _ in result.rows} == {doc_b, doc_d, doc_f}
            after = store.pools[1].plan_cache.stats()
            assert after["hits"] > warm["hits"]
            assert after["misses"] == warm["misses"]


# -- online rebalancing ----------------------------------------------------------


class TestRebalance:
    def test_rebalance_moves_document_and_preserves_content(self, tmp_path):
        with open_store(tmp_path) as store:
            doc = store.store_text(SMALL_XML, name="a")  # shard 0
            before = store.reconstruct_xml(doc)
            moved = store.rebalance(doc, 1)
            assert moved.shard == 1
            assert store.resolve(doc).shard == 1
            assert store.reconstruct_xml(doc) == before
            assert store.shard_counts() == {0: 0, 1: 1}
            assert store.query_pres(doc, "/bib/book")  # still readable
            assert store.verify_ok()
            # Source copy is gone, not orphaned.
            assert not store.writers[0].documents()
            # Idempotent when already home.
            assert store.rebalance(doc, 1).shard == 1

    def test_crash_mid_rebalance_rolls_back_and_audits_clean(self, tmp_path):
        policy = ShardFaultPolicy()
        with open_store(tmp_path, fault_policy=policy) as store:
            doc = store.store_text(SMALL_XML, name="a")
            before = store.reconstruct_xml(doc)
            policy.crash_shard(1, 3)  # mid-copy on the destination
            with pytest.raises(SimulatedCrash):
                store.rebalance(doc, 1)
            assert store.journal.pending()  # the move is journaled
            policy.heal_all()
            report = store.recover()
            assert report.acted
            assert not store.journal.pending()
            assert store.resolve(doc).shard == 0
            assert store.reconstruct_xml(doc) == before
            assert store.verify_ok()

    def test_crash_recovery_replays_from_disk_on_reopen(self, tmp_path):
        policy = ShardFaultPolicy()
        store = open_store(tmp_path, fault_policy=policy)
        doc = store.store_text(SMALL_XML, name="a")
        before = store.reconstruct_xml(doc)
        policy.crash_shard(1, 3)
        with pytest.raises(SimulatedCrash):
            store.rebalance(doc, 1)
        store.close()  # journal row survives on disk
        with open_store(tmp_path) as reopened:
            assert not reopened.journal.pending()
            assert reopened.reconstruct_xml(doc) == before
            assert reopened.verify_ok()

    def test_rebalance_shard_evens_counts(self, tmp_path):
        with open_store(tmp_path, shards=2) as store:
            for i in range(4):
                store.store_text(SMALL_XML, name=f"doc-{i}")
            # Round-robin already spread them 2/2; pile onto shard 0.
            for record in store.documents():
                if record.shard == 1:
                    store.rebalance(record.doc_id, 0)
            assert store.shard_counts() == {0: 4, 1: 0}
            moved = store.rebalance_shard(0, 1)
            assert len(moved) == 2
            assert store.shard_counts() == {0: 2, 1: 2}
            assert store.verify_ok()

    def test_rebalance_shard_onto_itself_moves_nothing(self, tmp_path):
        log = RequestLog(capacity=64)
        with open_store(tmp_path, shards=2, request_log=log) as store:
            for i in range(4):
                store.store_text(SMALL_XML, name=f"doc-{i}")
            before = store.shard_counts()
            assert store.rebalance_shard(0, 0, count=2) == []
            assert store.rebalance_shard(1, 1) == []
            assert store.shard_counts() == before
            assert not [
                event for event in log.tail(64) if event.get("op") == "rebalance"
            ]

    def test_rebalance_and_recovery_share_one_flip(
        self, tmp_path, monkeypatch
    ):
        """A crash at the flip leaves the move ``copied``; recovery
        rolls it forward through the very method the move used."""
        flips = []
        real_flip = ShardMap.flip

        def flip(shard_map, entry):
            flips.append(entry.state)
            if len(flips) == 1:
                raise SimulatedCrash("crash at the flip")
            real_flip(shard_map, entry)

        monkeypatch.setattr(ShardMap, "flip", flip)
        with open_store(tmp_path) as store:
            doc = store.store_text(SMALL_XML, name="a")  # shard 0
            before = store.reconstruct_xml(doc)
            with pytest.raises(SimulatedCrash):
                store.rebalance(doc, 1)
            assert [e.state for e in store.journal.pending()] == ["copied"]
            assert store.resolve(doc).shard == 0
            report = store.recover()
            assert report.rolled_forward == (doc,)
            assert flips == ["copied", "copied"]
            assert not store.journal.pending()
            assert store.resolve(doc).shard == 1
            assert store.reconstruct_xml(doc) == before
            assert store.verify_ok()

    @pytest.mark.parametrize(
        "args, missing",
        [((0, 5), 5), ((5, 0), 5), ((-1, 0), -1), ((5, 0, 1), 5)],
        ids=("to", "from", "negative", "from-with-count"),
    )
    def test_rebalance_shard_names_a_missing_shard(
        self, tmp_path, args, missing
    ):
        with open_store(tmp_path, shards=2) as store:
            store.store_text(SMALL_XML, name="a")
            with pytest.raises(StorageError, match=f"no shard {missing} "):
                store.rebalance_shard(*args)
            assert store.shard_counts() == {0: 1, 1: 0}


# -- integrity across shards -----------------------------------------------------


class TestShardedVerify:
    def test_verify_all_reports_per_shard(self, tmp_path):
        with open_store(tmp_path) as store:
            doc_a = store.store_text(SMALL_XML, name="a")
            doc_b = store.store_text(SMALL_XML, name="b")
            results = store.verify_all()
            assert set(results) == {0, 1}
            audited = {
                report.doc_id
                for reports in results.values()
                for report in reports
                if report.doc_id != -1
            }
            assert audited == {doc_a, doc_b}
            for shard, reports in results.items():
                for report in reports:
                    assert report.ok, report.summary()
                    assert report.shard == shard
            # Per-document verify carries global id + shard.
            report = store.verify(doc_b)
            assert report.doc_id == doc_b
            assert report.shard == store.resolve(doc_b).shard
            assert f"shard {report.shard}" in report.summary()

    def test_placement_audit_flags_orphans(self, tmp_path):
        with open_store(tmp_path) as store:
            store.store_text(SMALL_XML, name="a")
            # Sneak a document into shard 0 behind the map's back.
            store.writers[0].store_text(SMALL_XML, name="orphan")
            placement = store.verify_all()[0][-1]
            assert not placement.ok
            assert placement.failed("placement.no-orphans")
            # recover() sweeps it; the audit comes back clean.
            assert store.recover().orphans_removed
            assert store.verify_ok()


# -- pool health-check retry -----------------------------------------------------


class FlakySelectOneDatabase(Database):
    """Fails the pool health probe a configurable number of times."""

    failures_left = 0

    def _raw_execute(self, sql, params=()):
        if sql == "SELECT 1" and type(self).failures_left > 0:
            type(self).failures_left -= 1
            raise StorageError("health probe refused (injected)")
        return super()._raw_execute(sql, params)


class TestPoolHealthRetry:
    def _seed(self, path):
        with Database(str(path), profile="bulk_load") as db:
            from repro.core.registry import create_scheme

            create_scheme("interval", db)

    def test_fresh_failures_retry_with_backoff_then_succeed(self, tmp_path):
        path = tmp_path / "shard.db"
        self._seed(path)
        FlakySelectOneDatabase.failures_left = 2
        sleeps = []
        metrics = MetricsRegistry()
        pool = ConnectionPool(
            str(path),
            "interval",
            size=1,
            name="flaky",
            metrics=metrics,
            factory=FlakySelectOneDatabase,
            retry=RetryPolicy(
                max_attempts=4, base_delay=0.01, jitter=0.0,
                sleep=sleeps.append,
            ),
        )
        with pool.connection() as session:
            assert session.db.scalar("SELECT 1") == 1
        assert metrics.counter_value("pool.flaky.health_retries") == 2
        assert len(sleeps) == 2
        assert sleeps[0] < sleeps[1]  # exponential backoff
        pool.close()

    def test_exhausted_retries_report_shard_down(self, tmp_path):
        path = tmp_path / "shard.db"
        self._seed(path)
        FlakySelectOneDatabase.failures_left = 99
        pool = ConnectionPool(
            str(path),
            "interval",
            size=1,
            name="down",
            factory=FlakySelectOneDatabase,
            retry=RetryPolicy(
                max_attempts=3, base_delay=0.0, jitter=0.0,
                sleep=lambda _: None,
            ),
        )
        with pytest.raises(StorageError, match="shard down"):
            pool.acquire()
        FlakySelectOneDatabase.failures_left = 0
        pool.close()


# -- crash_shard mirrors crash_on ------------------------------------------------


class TestCrashShard:
    def test_crash_on_nth_statement_then_refuse_until_heal(self):
        policy = ShardFaultPolicy()
        db = policy.factory(7)(":memory:", profile="bulk_load")
        db.execute("CREATE TABLE t (x INTEGER)")
        policy.crash_shard(7, 2)
        db.execute("INSERT INTO t VALUES (1)")  # statement 1: fine
        with pytest.raises(SimulatedCrash):
            db.execute("INSERT INTO t VALUES (2)")  # statement 2: crash
        with pytest.raises(StorageError, match="crashed"):
            db.execute("SELECT * FROM t")  # down until healed
        policy.heal_shard(7)
        assert db.scalar("SELECT COUNT(*) FROM t") == 1
        db.close()

    def test_crash_inside_transaction_rolls_back(self):
        policy = ShardFaultPolicy()
        db = policy.factory(3)(":memory:", profile="bulk_load")
        db.execute("CREATE TABLE t (x INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")
        policy.crash_shard(3, 2)
        with pytest.raises(SimulatedCrash):
            with db.transaction():
                db.execute("INSERT INTO t VALUES (2)")
                db.execute("INSERT INTO t VALUES (3)")
        policy.heal_shard(3)
        assert db.scalar("SELECT COUNT(*) FROM t") == 1
        db.close()
