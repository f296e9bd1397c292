"""Reliability layer: durability profiles, retries, crash atomicity.

The atomicity suites sweep a fault over *every statement position* of
``store``/``delete``/the update primitives, for every registered
scheme, and assert the database is always in exactly one of two states:
untouched (rollback won) or fully updated (the fault landed after
commit) — never partial rows, never a dangling catalog entry.
"""

import sqlite3

import pytest

from repro.core.registry import available_schemes, create_scheme
from repro.errors import StorageError, TransientStorageError, UpdateError
from repro.relational.database import DURABILITY_PROFILES, Database
from repro.relational.retry import RetryPolicy, is_transient_error
from repro.reliability import (
    FaultInjected,
    FaultInjectingDatabase,
    SimulatedCrash,
)
from repro.storage.base import STREAM_BATCH
from repro.updates import delete_subtree, insert_subtree
from repro.xml.dom import deep_equal
from repro.xml.parser import parse_document

from tests.conftest import BIB_DTD_XML

ALL_SCHEMES = available_schemes()
UPDATE_SCHEMES = ["edge", "binary", "interval", "dewey"]

SMALL_XML = (
    "<bib>"
    "<book year='1994'><title>TCP/IP</title><price>65.95</price></book>"
    "<book year='2000'><title>Data on the Web</title>"
    "<price>39.95</price></book>"
    "</bib>"
)

FRAGMENT_XML = "<book year='2003'><title>XML and RDBMS</title></book>"


def small_document():
    return parse_document(SMALL_XML)


def make_scheme(name, db):
    kwargs = {}
    if name == "inlining":
        kwargs["dtd"] = parse_document(BIB_DTD_XML).dtd
    return create_scheme(name, db, **kwargs)


def snapshot(db):
    """Every table's full contents, order-independent."""
    return {
        table: sorted(
            map(repr, db.query(f"SELECT * FROM {table}"))
        )
        for table in db.table_names()
    }


def assert_all_or_nothing(db, scheme, before, doc_name, original=None):
    """The crash-consistency invariant: the operation either never
    happened (state == *before*) or fully happened (the document is
    catalogued, verifies, and reconstructs)."""
    after = snapshot(db)
    if after == before:
        return "rolled-back"
    stored = {
        record.name: record.doc_id
        for record in scheme.catalog.list(scheme=scheme.name)
    }
    assert doc_name in stored, (
        "state changed but the document is not catalogued: "
        "partial effects leaked"
    )
    report = scheme.verify_document(stored[doc_name])
    assert report.ok, report.issues
    if original is not None:
        assert deep_equal(scheme.reconstruct(stored[doc_name]), original)
    return "committed"


def multi_batch_document():
    """A bib large enough that every scheme's store issues several
    row-insert statements: more than ``STREAM_BATCH`` text nodes, so
    the one-row-per-node inserters flush mid-stream and again at the
    end, and binary flushes its ``#text`` partition mid-stream and the
    other partitions at the end."""
    books = "".join(
        f"<book year='{1990 + i % 30}'><title>T{i}</title>"
        f"<price>{i}.5</price></book>"
        for i in range(STREAM_BATCH // 2 + 8)
    )
    return parse_document(f"<bib>{books}</bib>")


class TestStoreAtomicity:
    def sweep(self, scheme_name, document):
        """Fault every statement of storing *document* after a first
        store committed; returns the SQL of the statements that were
        faulted and rolled back."""
        rolled_back = []
        for n in range(1, 300):
            db = FaultInjectingDatabase()
            scheme = make_scheme(scheme_name, db)
            scheme.store(small_document(), "first")
            before = snapshot(db)
            db.fail_on(n)
            try:
                scheme.store(document, "second")
            except FaultInjected:
                faulted = db.statement_log[-1]
                outcome = assert_all_or_nothing(
                    db, scheme, before, "second", document
                )
                if outcome == "rolled-back":
                    rolled_back.append(faulted)
                db.close()
            else:
                db.reset_faults()
                report = scheme.verify_document(
                    scheme.catalog.list(scheme=scheme.name)[-1].doc_id
                )
                assert report.ok, report.issues
                db.close()
                return rolled_back
        pytest.fail("fault never stopped firing; sweep too short")

    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_fault_at_every_statement(self, scheme_name):
        # At least one injection point must have exercised rollback.
        assert self.sweep(scheme_name, small_document())

    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_fault_between_flushes(self, scheme_name):
        """A fault *after* earlier row batches were already written
        still takes everything back, catalog row included."""
        rolled_back = self.sweep(scheme_name, multi_batch_document())
        row_inserts = [
            sql for sql in rolled_back
            if sql.startswith("INSERT") and "xmlrel_documents" not in sql
            and "_labels" not in sql
        ]
        assert len(row_inserts) >= 2, rolled_back
        if scheme_name == "binary":
            # Flushes of at least two different partitions were hit.
            assert len(set(row_inserts)) >= 2

    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_crash_mid_store_then_recover(self, scheme_name):
        db = FaultInjectingDatabase()
        scheme = make_scheme(scheme_name, db)
        scheme.store(small_document(), "first")
        before = snapshot(db)
        # Statement 1 is the catalog INSERT, statement 2 the row sink's
        # first (a row insert; binary's partition lookup) — always
        # inside the store transaction, whose last statement is the
        # catalog finalize UPDATE.
        db.crash_on(2)
        with pytest.raises(SimulatedCrash):
            scheme.store(small_document(), "second")
        # Until recovery the connection refuses service.
        with pytest.raises(StorageError):
            scheme.store(small_document(), "third")
        db.recover()
        assert snapshot(db) == before
        doc_id = scheme.store(small_document(), "after-recovery").doc_id
        assert scheme.verify_document(doc_id).ok


class TestDeleteAtomicity:
    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_fault_at_every_statement(self, scheme_name):
        for n in range(1, 300):
            db = FaultInjectingDatabase()
            scheme = make_scheme(scheme_name, db)
            doc_id = scheme.store(small_document(), "victim").doc_id
            before = snapshot(db)
            db.fail_on(n)
            try:
                scheme.delete_document(doc_id)
            except FaultInjected:
                # Rollback must leave the document fully present...
                assert snapshot(db) == before
                db.reset_faults()
                assert scheme.verify_document(doc_id).ok
                db.close()
            else:
                # ...and completion must leave no trace of it.
                db.reset_faults()
                assert scheme.catalog.list(scheme=scheme.name) == []
                for table in scheme.table_names():
                    if table == "xmlrel_documents":
                        continue
                    count = db.scalar(
                        f"SELECT COUNT(*) FROM {table} "
                        "WHERE doc_id = ?",
                        (doc_id,),
                    ) if "doc_id" in [
                        r[1] for r in db.query(
                            f"PRAGMA table_info({table})"
                        )
                    ] else 0
                    assert count == 0, f"orphan rows in {table}"
                db.close()
                return
        pytest.fail("fault never stopped firing; sweep too short")


class TestUpdateAtomicity:
    @pytest.mark.parametrize("scheme_name", UPDATE_SCHEMES)
    def test_insert_subtree_fault_sweep(self, scheme_name):
        rolled_back = 0
        for n in range(1, 300):
            db = FaultInjectingDatabase()
            scheme = make_scheme(scheme_name, db)
            doc_id = scheme.store(small_document(), "doc").doc_id
            parent_pre = 1  # the root element
            before = snapshot(db)
            db.fail_on(n)
            fragment = parse_document(FRAGMENT_XML).root_element
            fragment.parent.remove_child(fragment)
            try:
                insert_subtree(scheme, doc_id, parent_pre, fragment, 0)
            except FaultInjected:
                assert snapshot(db) == before
                db.reset_faults()
                assert scheme.verify_document(doc_id).ok
                rolled_back += 1
                db.close()
            else:
                db.reset_faults()
                report = scheme.verify_document(doc_id)
                assert report.ok, report.issues
                db.close()
                break
        else:
            pytest.fail("fault never stopped firing; sweep too short")
        assert rolled_back > 0

    @pytest.mark.parametrize("scheme_name", UPDATE_SCHEMES)
    def test_delete_subtree_fault_sweep(self, scheme_name):
        for n in range(1, 300):
            db = FaultInjectingDatabase()
            scheme = make_scheme(scheme_name, db)
            doc_id = scheme.store(small_document(), "doc").doc_id
            # Delete the first book element (a mid-document subtree).
            victim = scheme.query_pres(doc_id, "/bib/book")[0]
            before = snapshot(db)
            db.fail_on(n)
            try:
                delete_subtree(scheme, doc_id, victim)
            except FaultInjected:
                assert snapshot(db) == before
                db.reset_faults()
                assert scheme.verify_document(doc_id).ok
                db.close()
            else:
                db.reset_faults()
                report = scheme.verify_document(doc_id)
                assert report.ok, report.issues
                assert scheme.query_pres(doc_id, "/bib/book") != []
                db.close()
                return
        pytest.fail("fault never stopped firing; sweep too short")


class TestRetryPolicy:
    def policy(self, attempts=5):
        sleeps = []
        return (
            RetryPolicy(
                max_attempts=attempts,
                base_delay=0.001,
                sleep=sleeps.append,
                seed=7,
            ),
            sleeps,
        )

    def test_transient_classification(self):
        assert is_transient_error(
            sqlite3.OperationalError("database is locked")
        )
        assert not is_transient_error(
            sqlite3.OperationalError("no such table: nope")
        )
        assert not is_transient_error(ValueError("x"))

    def test_busy_retried_until_success(self):
        policy, sleeps = self.policy()
        db = FaultInjectingDatabase(retry=policy)
        db.execute("CREATE TABLE t (x)")
        db.busy_next(3)
        db.execute("INSERT INTO t VALUES (1)")
        assert db.scalar("SELECT COUNT(*) FROM t") == 1
        assert len(sleeps) == 3
        assert all(delay >= 0 for delay in sleeps)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            max_attempts=10, base_delay=0.01, max_delay=0.05, jitter=0.0,
            sleep=lambda __: None,
        )
        delays = [policy.delay_for(k) for k in range(1, 6)]
        assert delays == [0.01, 0.02, 0.04, 0.05, 0.05]

    def test_exhaustion_raises_transient_error(self):
        policy, __ = self.policy(attempts=3)
        db = FaultInjectingDatabase(retry=policy)
        db.execute("CREATE TABLE t (x)")
        db.busy_next(99)
        with pytest.raises(TransientStorageError) as info:
            db.execute("INSERT INTO t VALUES (1)")
        assert info.value.attempts == 3
        db.reset_faults()
        assert db.scalar("SELECT COUNT(*) FROM t") == 0

    def test_no_policy_surfaces_transient_error_immediately(self):
        db = FaultInjectingDatabase()
        db.execute("CREATE TABLE t (x)")
        db.busy_next(1)
        with pytest.raises(TransientStorageError):
            db.execute("INSERT INTO t VALUES (1)")

    def test_executemany_retry_does_not_duplicate(self):
        policy, __ = self.policy()
        db = FaultInjectingDatabase(retry=policy)
        db.execute("CREATE TABLE t (x)")
        db.busy_next(2)
        db.executemany(
            "INSERT INTO t VALUES (?)", ((i,) for i in range(4))
        )
        assert db.scalar("SELECT COUNT(*) FROM t") == 4

    def test_run_transaction_retries_whole_block(self):
        policy, __ = self.policy(attempts=2)
        db = FaultInjectingDatabase(retry=policy)
        db.execute("CREATE TABLE t (x)")
        runs = []

        def block():
            runs.append(1)
            db.execute("INSERT INTO t VALUES (1)")
            if len(runs) == 1:
                # Exhaust the per-statement retry: the block itself
                # must then be rolled back and re-run from the top.
                db.busy_next(2)
            db.execute("INSERT INTO t VALUES (2)")

        db.run_transaction(block)
        assert len(runs) == 2
        assert db.query("SELECT x FROM t ORDER BY x") == [(1,), (2,)]


class TestNestedTransactions:
    def test_inner_rollback_preserves_outer(self, db):
        db.execute("CREATE TABLE t (x)")
        with db.transaction():
            db.execute("INSERT INTO t VALUES (1)")
            with pytest.raises(RuntimeError):
                with db.transaction():
                    db.execute("INSERT INTO t VALUES (2)")
                    raise RuntimeError("inner fails")
            db.execute("INSERT INTO t VALUES (3)")
        assert db.query("SELECT x FROM t ORDER BY x") == [(1,), (3,)]

    def test_outer_rollback_discards_released_inner(self, db):
        db.execute("CREATE TABLE t (x)")
        with pytest.raises(RuntimeError):
            with db.transaction():
                with db.transaction():
                    db.execute("INSERT INTO t VALUES (1)")
                raise RuntimeError("outer fails")
        assert db.query("SELECT x FROM t") == []

    def test_deep_nesting(self, db):
        db.execute("CREATE TABLE t (x)")
        with db.transaction():
            with db.transaction():
                with db.transaction():
                    db.execute("INSERT INTO t VALUES (1)")
        assert db.query("SELECT x FROM t") == [(1,)]
        assert not db.in_transaction


class TestDurabilityProfiles:
    def test_unknown_profile_rejected(self):
        with pytest.raises(StorageError, match="unknown durability"):
            Database(profile="yolo")

    @pytest.mark.parametrize(
        "profile,journal,synchronous",
        [
            ("bulk_load", "memory", 0),
            ("durable", "wal", 1),
            ("paranoid", "wal", 2),
        ],
    )
    def test_profile_pragmas(self, tmp_path, profile, journal, synchronous):
        with Database(
            str(tmp_path / f"{profile}.db"), profile=profile
        ) as db:
            assert db.scalar("PRAGMA journal_mode").lower() == journal
            assert db.scalar("PRAGMA synchronous") == synchronous
            assert db.profile == profile

    def test_every_profile_stores_and_verifies(self, tmp_path):
        from repro.core.store import XmlRelStore

        for profile in DURABILITY_PROFILES:
            path = str(tmp_path / f"store_{profile}.db")
            with XmlRelStore.open(
                path, scheme="interval", profile=profile
            ) as store:
                doc_id = store.store_text(SMALL_XML)
                assert store.verify(doc_id).ok
                assert store.query_xml(doc_id, "/bib/book/title")


class TestFileBytesGuard:
    def test_rejected_inside_transaction(self, db):
        db.execute("CREATE TABLE t (x)")
        with pytest.raises(StorageError, match="VACUUM"):
            with db.transaction():
                db.file_bytes()

    def test_fine_outside_transaction(self, db):
        db.execute("CREATE TABLE t (x)")
        assert db.file_bytes() > 0


class TestFailedOpenClosesConnections:
    """An open that raises leaves no connection behind."""

    @pytest.fixture()
    def opened(self, monkeypatch):
        """Every :class:`Database` constructed during the test."""
        databases = []
        real_init = Database.__init__

        def recording(self, *args, **kwargs):
            databases.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(Database, "__init__", recording)
        return databases

    @staticmethod
    def assert_closed(databases):
        assert databases
        for db in databases:
            conn = getattr(db, "_conn", None)
            if conn is None:
                continue  # failed before connecting
            with pytest.raises(sqlite3.ProgrammingError):
                conn.execute("SELECT 1")

    def test_config_mismatch(self, tmp_path, opened):
        from repro.serve import ShardedStore

        directory = str(tmp_path / "store")
        ShardedStore.open(directory, shards=2).close()
        opened.clear()
        with pytest.raises(StorageError):
            ShardedStore.open(directory, shards=3)
        self.assert_closed(opened)

    def test_unreadable_shard_file(self, tmp_path, opened):
        from repro.serve import ShardedStore

        directory = tmp_path / "store"
        ShardedStore.open(str(directory), shards=2).close()
        (directory / "shard-01.db").write_bytes(b"not a database " * 512)
        for leftover in directory.glob("shard-01.db-*"):
            leftover.unlink()
        opened.clear()
        with pytest.raises(StorageError):
            ShardedStore.open(str(directory), shards=2)
        self.assert_closed(opened)

    def test_unknown_scheme(self, opened):
        from repro.core.store import XmlRelStore
        from repro.errors import XmlRelError

        with pytest.raises(XmlRelError):
            XmlRelStore.open(":memory:", scheme="nope")
        # The scheme name is checked before any connection is made.
        assert opened == []
