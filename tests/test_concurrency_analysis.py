"""Concurrency analysis: static rules C001–C006, the lock model and
registry, the ``--json`` report, and the runtime lock-order harness."""

import os
import threading
from pathlib import Path

import pytest

from repro.analysis.concurrency import (
    LOCK_ORDER,
    LOCK_SITES,
    build_report,
    lint_concurrency,
    main as concurrency_main,
    sites_for,
)
from repro.analysis.lockharness import (
    LockWatcher,
    OrderedLock,
    instrument_sharded_store,
)
from repro.errors import LockDisciplineError
from repro.obs.metrics import MetricsRegistry
from repro.serve import ShardedStore

SRC_ROOT = Path(__file__).resolve().parent.parent / "src"

#: Fixture registry: ranks the attributes the seeded-bug modules use
#: (fixture paths are deliberately not in the real ``LOCK_SITES``).
FIXTURE_SITES = {
    "fixture/mod.py": {
        "_outer": "shard",
        "_inner": "metrics",
        "_shard_locks": "shard",
    },
}


def lint_fixture(tmp_path, source, sites=None, order=None):
    """Write one seeded-bug module and analyze it."""
    path = tmp_path / "fixture" / "mod.py"
    path.parent.mkdir(exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return lint_concurrency(
        [tmp_path],
        root=tmp_path,
        sites=sites if sites is not None else {},
        order=order,
    )


# -- static rules, one seeded bug each -------------------------------------------


class TestStaticRules:
    def test_c001_direct_lock_order_inversion(self, tmp_path):
        findings, _suppressed, _locks = lint_fixture(
            tmp_path,
            """\
import threading

class Bad:
    def __init__(self):
        self._outer = threading.Lock()
        self._inner = threading.Lock()

    def right(self):
        with self._outer:
            with self._inner:
                pass

    def wrong(self):
        with self._inner:
            with self._outer:
                pass
""",
            sites=FIXTURE_SITES,
        )
        assert [d.code for d in findings] == ["C001"]
        assert findings[0].is_error
        assert "rank 0" in findings[0].message
        assert findings[0].location.endswith(":15")  # only wrong()

    def test_c001_through_same_class_call_path(self, tmp_path):
        findings, _suppressed, _locks = lint_fixture(
            tmp_path,
            """\
import threading

class Bad:
    def __init__(self):
        self._outer = threading.Lock()
        self._inner = threading.Lock()

    def wrong(self):
        with self._inner:
            self.take_outer()

    def take_outer(self):
        with self._outer:
            pass
""",
            sites=FIXTURE_SITES,
        )
        assert [d.code for d in findings] == ["C001"]
        assert "call path self.take_outer()" in findings[0].message

    def test_c002_queue_wait_under_unranked_lock(self, tmp_path):
        findings, _suppressed, _locks = lint_fixture(
            tmp_path,
            """\
import queue
import threading

class Worker:
    def __init__(self):
        self._lock = threading.Lock()
        self._pending = queue.Queue()

    def drain(self):
        with self._lock:
            return self._pending.get()
""",
        )
        assert [d.code for d in findings] == ["C002"]
        assert "blocking queue call" in findings[0].message

    def test_c002_respects_blocking_allowances(self, tmp_path):
        # "shard" allows execute/acquire underneath — sleep stays banned.
        findings, _suppressed, _locks = lint_fixture(
            tmp_path,
            """\
import threading
import time

class Writer:
    def __init__(self, db):
        self._outer = threading.Lock()
        self.db = db

    def commit(self):
        with self._outer:
            self.db.execute("COMMIT")

    def stall(self):
        with self._outer:
            time.sleep(1.0)
""",
            sites=FIXTURE_SITES,
        )
        assert [d.code for d in findings] == ["C002"]
        assert "time.sleep" in findings[0].message

    def test_c002_timeout_and_semaphore_are_exempt(self, tmp_path):
        findings, _suppressed, _locks = lint_fixture(
            tmp_path,
            """\
import queue
import threading

class Gated:
    def __init__(self):
        self._gate = threading.Semaphore(4)
        self._lock = threading.Lock()
        self._pending = queue.Queue()

    def bounded_wait(self):
        with self._lock:
            return self._pending.get(timeout=0.5)

    def gated_wait(self):
        with self._gate:
            return self._pending.get()
""",
        )
        assert findings == []

    def test_c003_unguarded_write_to_guarded_attribute(self, tmp_path):
        findings, _suppressed, _locks = lint_fixture(
            tmp_path,
            """\
import threading

class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self.value = 0

    def bump(self):
        with self._lock:
            self.value += 1

    def reset(self):
        self.value = 0
""",
        )
        assert [d.code for d in findings] == ["C003"]
        assert "self.value" in findings[0].message
        assert findings[0].severity == "warning"
        assert findings[0].location.endswith(":13")  # reset(), not __init__

    def test_c004_anonymous_thread(self, tmp_path):
        findings, _suppressed, _locks = lint_fixture(
            tmp_path,
            """\
import threading

def spawn(run):
    good = threading.Thread(target=run, name="xmlrel-w0", daemon=True)
    bad = threading.Thread(target=run)
    return good, bad
""",
        )
        assert [d.code for d in findings] == ["C004"]
        assert "name=" in findings[0].message
        assert "daemon=" in findings[0].message

    def test_c005_direct_double_acquire(self, tmp_path):
        findings, _suppressed, _locks = lint_fixture(
            tmp_path,
            """\
import threading

class Bad:
    def __init__(self):
        self._lock = threading.Lock()

    def recurse(self):
        with self._lock:
            with self._lock:
                pass
""",
        )
        assert [d.code for d in findings] == ["C005"]
        assert "self-deadlock" in findings[0].message

    def test_c005_through_same_class_call_path(self, tmp_path):
        findings, _suppressed, _locks = lint_fixture(
            tmp_path,
            """\
import threading

class Bad:
    def __init__(self):
        self._lock = threading.Lock()

    def outer(self):
        with self._lock:
            self.helper()

    def helper(self):
        with self._lock:
            pass
""",
        )
        assert [d.code for d in findings] == ["C005"]
        assert "call path self.helper()" in findings[0].message

    def test_handed_in_registered_lock_is_modeled(self, tmp_path):
        """A registered lock a class receives (the shard catalog's
        shared ``catalog_lock``) is checked like one it builds; an
        unregistered attribute assigned the same way is not a lock."""
        source = """\
class View:
    def __init__(self, catalog_lock, other):
        self.catalog_lock = catalog_lock
        self.other = other

    def flip(self):
        with self.catalog_lock:
            self.register()

    def register(self):
        with self.catalog_lock:
            pass
"""
        findings, _suppressed, locks = lint_fixture(
            tmp_path, source,
            sites={"fixture/mod.py": {"catalog_lock": "map"}},
        )
        assert [d.code for d in findings] == ["C005"]
        assert [(lock["attr"], lock["lock_class"]) for lock in locks] == [
            ("catalog_lock", "map")
        ]
        findings, _suppressed, locks = lint_fixture(tmp_path, source)
        assert findings == [] and locks == []

    def test_c005_rlock_is_exempt(self, tmp_path):
        findings, _suppressed, _locks = lint_fixture(
            tmp_path,
            """\
import threading

class Fine:
    def __init__(self):
        self._lock = threading.RLock()

    def recurse(self):
        with self._lock:
            with self._lock:
                pass
""",
        )
        assert findings == []

    def test_loop_acquired_lock_list_is_tracked(self, tmp_path):
        findings, _suppressed, locks = lint_fixture(
            tmp_path,
            """\
import queue
import threading

class Store:
    def __init__(self, n):
        self._shard_locks = [threading.Lock() for _ in range(n)]
        self._pending = queue.Queue()

    def freeze(self):
        for lock in self._shard_locks:
            lock.acquire()
        item = self._pending.get()
        for lock in reversed(self._shard_locks):
            lock.release()
        return item
""",
            sites=FIXTURE_SITES,
        )
        # The queue wait happens while every shard lock is held — but
        # "shard" allows neither queue waits... it allows only
        # execute/acquire, so the get() is flagged.
        assert [d.code for d in findings] == ["C002"]
        assert any(
            lock["attr"] == "_shard_locks" and lock["kind"] == "lock_list"
            for lock in locks
        )

    def test_c006_blocking_call_in_a_coroutine(self, tmp_path):
        findings, _suppressed, _locks = lint_fixture(
            tmp_path,
            """\
import time

class Server:
    async def handle(self, writer):
        session = self.pool.acquire()
        writer.write(session.db.execute("SELECT 1"))
        await writer.drain()

async def tick():
    time.sleep(1)
""",
        )
        assert [(d.code, d.location.rsplit(":", 1)[1]) for d in findings] == [
            ("C006", "10"), ("C006", "5"), ("C006", "6"),
        ]
        assert all(d.is_error for d in findings)
        assert "async def handle" in findings[1].message
        assert "blocking acquire call self.pool.acquire" in findings[1].message

    def test_c006_follows_inline_calls_out_of_the_coroutine(self, tmp_path):
        findings, _suppressed, _locks = lint_fixture(
            tmp_path,
            """\
class Server:
    async def handle(self, request):
        def parse(raw):
            return self.db.query(raw)
        spec = self._prepare(parse(request))
        return spec

    def _prepare(self, spec):
        return self._resolve(spec)

    def _resolve(self, spec):
        with self.pool.connection() as session:
            return session

    def offline(self):
        return self.db.execute("VACUUM")
""",
        )
        assert sorted(d.location.rsplit(":", 1)[1] for d in findings) == [
            "12", "4",
        ]
        assert {d.code for d in findings} == {"C006"}
        (resolve,) = [d for d in findings if d.location.endswith(":12")]
        assert "_resolve(), reachable from async def handle" in resolve.message

    def test_c006_exempts_awaited_and_offloaded_calls(self, tmp_path):
        findings, _suppressed, _locks = lint_fixture(
            tmp_path,
            """\
import asyncio

class Server:
    async def handle(self, loop):
        item = await self._queue.get()
        await self._lock.acquire()
        await loop.run_in_executor(None, self._blocking)
        await loop.run_in_executor(None, self.db.execute("SELECT 1"))
        await asyncio.to_thread(self.pool.acquire)
        later = lambda: self.pool.acquire()
        return item, later

    def _blocking(self):
        return self.db.execute("SELECT 1")
""",
        )
        assert findings == []

    def test_c006_catches_a_seeded_acquire_in_the_gateway(self, tmp_path):
        """The guardrail on the real module: one pool acquire slipped
        into the on-loop ``_prepare`` is an error."""
        source = (SRC_ROOT / "repro/serve/gateway.py").read_text("utf-8")
        marker = "        short_circuit = False\n"
        assert source.count(marker) == 1
        seeded = source.replace(
            marker, marker + "        self.store.pools[0].acquire()\n"
        )
        findings, _suppressed, _locks = lint_fixture(tmp_path, seeded)
        assert [d.code for d in findings] == ["C006"]
        assert "_prepare(), reachable from async def _handle_query" in (
            findings[0].message
        )

    def test_syntax_error_is_c000(self, tmp_path):
        findings, _suppressed, _locks = lint_fixture(
            tmp_path, "def broken(:\n"
        )
        assert [d.code for d in findings] == ["C000"]


# -- pragma suppression -----------------------------------------------------------


class TestPragmas:
    def test_inline_pragma_suppresses(self, tmp_path):
        findings, suppressed, _locks = lint_fixture(
            tmp_path,
            """\
import queue
import threading

class Worker:
    def __init__(self):
        self._lock = threading.Lock()
        self._pending = queue.Queue()

    def drain(self):
        with self._lock:
            return self._pending.get()  # lint: allow(C002)
""",
        )
        assert findings == []
        assert [d.code for d in suppressed] == ["C002"]

    def test_comment_line_pragma_covers_next_line(self, tmp_path):
        findings, suppressed, _locks = lint_fixture(
            tmp_path,
            """\
import threading

def spawn(run):
    # short-lived, joined before return  # lint: allow(C004)
    return threading.Thread(target=run)
""",
        )
        assert findings == []
        assert [d.code for d in suppressed] == ["C004"]

    def test_pragma_is_code_specific(self, tmp_path):
        findings, suppressed, _locks = lint_fixture(
            tmp_path,
            """\
import threading

def spawn(run):
    return threading.Thread(target=run)  # lint: allow(C002)
""",
        )
        assert [d.code for d in findings] == ["C004"]
        assert suppressed == []


# -- the lock model and the canonical registry ------------------------------------


class TestLockModel:
    def test_sites_for_suffix_matches(self):
        attrs = sites_for("src/repro/serve/pool.py", LOCK_SITES)
        assert attrs == {"_lock": "pool"}
        assert sites_for("unrelated/module.py", LOCK_SITES) == {}

    def test_lock_order_is_well_formed(self):
        ranks = [c.rank for c in LOCK_ORDER]
        assert ranks == sorted(ranks) == list(range(len(LOCK_ORDER)))
        assert [c.name for c in LOCK_ORDER] == [
            "shard", "map", "pool", "metrics",
        ]

    def test_registry_matches_tree(self):
        """Every registered module exists and every declared lock
        attribute is actually found by the analyzer."""
        _findings, _suppressed, locks = lint_concurrency(
            [SRC_ROOT / "repro"], root=SRC_ROOT
        )
        modeled = {(lock["file"], lock["attr"]) for lock in locks}
        for suffix, attrs in LOCK_SITES.items():
            assert (SRC_ROOT / suffix).exists(), suffix
            for attr in attrs:
                assert (suffix, attr) in modeled, (suffix, attr)

    def test_every_modeled_mutex_in_registered_module_is_ranked(self):
        _findings, _suppressed, locks = lint_concurrency(
            [SRC_ROOT / "repro"], root=SRC_ROOT
        )
        for lock in locks:
            if sites_for(lock["file"], LOCK_SITES):
                assert lock["rank"] is not None, lock

    def test_src_repro_passes_the_strict_gate(self):
        """The acceptance criterion: zero unsuppressed findings over
        the real tree, and nothing suppressed either."""
        findings, suppressed, locks = lint_concurrency(
            [SRC_ROOT / "repro"], root=SRC_ROOT
        )
        assert findings == []
        assert suppressed == []
        assert len(locks) >= 15


# -- the machine-readable report ---------------------------------------------------


class TestConcurrencyReport:
    def test_build_report_schema(self, tmp_path):
        path = tmp_path / "fixture" / "mod.py"
        path.parent.mkdir()
        path.write_text(
            "import threading\n\n"
            "def spawn(run):\n"
            "    return threading.Thread(target=run)\n",
            encoding="utf-8",
        )
        report = build_report([tmp_path], root=tmp_path, sites={})
        assert set(report) == {
            "tool", "lock_order", "locks", "findings", "suppressed",
            "count",
        }
        assert report["tool"] == "xmlrel-concurrency"
        assert report["lock_order"] == [
            {
                "name": c.name,
                "rank": c.rank,
                "blocking_ok": list(c.blocking_ok),
            }
            for c in LOCK_ORDER
        ]
        assert report["count"] == len(report["findings"]) == 1
        finding = report["findings"][0]
        assert set(finding) == {"code", "severity", "message", "location"}
        assert finding["code"] == "C004"

    def test_cli_strict_gate_and_json_artifact(self, tmp_path, capsys):
        import json

        report_path = tmp_path / "concurrency-report.json"
        code = concurrency_main(
            ["--strict", "--json", str(report_path), str(SRC_ROOT / "repro")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "xmlrel-concurrency: 0 finding(s)" in out
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["count"] == 0
        assert report["tool"] == "xmlrel-concurrency"
        assert report["suppressed"] == []


# -- the runtime lock-order harness ------------------------------------------------


class TestLockWatcher:
    def pair(self, watcher):
        outer = watcher.wrap(threading.Lock(), "shard[0]", "shard", index=0)
        inner = watcher.wrap(threading.Lock(), "metrics", "metrics")
        return outer, inner

    def test_clean_nesting_records_edges_only(self):
        watcher = LockWatcher()
        outer, inner = self.pair(watcher)
        with outer:
            with inner:
                pass
        assert watcher.violations == ()
        watcher.assert_clean()
        report = watcher.report()
        assert report["tool"] == "xmlrel-lockharness"
        assert report["acquires"] == 2
        assert report["releases"] == 2
        assert report["edges"] == {"shard[0]": ["metrics"]}
        assert report["count"] == 0

    def test_rank_inversion_is_recorded_not_raised(self):
        metrics = MetricsRegistry()
        watcher = LockWatcher(metrics=metrics)
        outer, inner = self.pair(watcher)
        with inner:
            with outer:  # metrics (rank 3) held while taking shard (0)
                pass
        violations = watcher.violations
        assert len(violations) == 1
        assert violations[0].kind == "order"
        assert violations[0].acquired == "shard[0]"
        assert violations[0].held == ("metrics",)
        snap = metrics.snapshot()
        assert snap["counters"]["concurrency.order_violations"] == 1
        with pytest.raises(LockDisciplineError):
            watcher.assert_clean()
        watcher.reset()
        watcher.assert_clean()

    def test_same_class_index_order_is_enforced(self):
        watcher = LockWatcher()
        shard0 = watcher.wrap(
            threading.Lock(), "shard[0]", "shard", index=0
        )
        shard1 = watcher.wrap(
            threading.Lock(), "shard[1]", "shard", index=1
        )
        with shard0:
            with shard1:  # ascending: fine
                pass
        assert watcher.violations == ()
        with shard1:
            with shard0:  # descending: violation (and an ABBA cycle)
                pass
        by_kind = {v.kind: v for v in watcher.violations}
        assert set(by_kind) == {"order", "cycle"}
        assert "index 0 under index 1" in by_kind["order"].detail

    def test_abba_cycle_detected_across_runs(self):
        metrics = MetricsRegistry()
        watcher = LockWatcher(metrics=metrics)
        first = watcher.wrap(threading.Lock(), "m1", "metrics")
        second = watcher.wrap(threading.Lock(), "m2", "metrics")
        with first:
            with second:  # equal ranks — no order violation
                pass
        with second:
            with first:  # closes the m1 -> m2 -> m1 cycle
                pass
        violations = watcher.violations
        assert [v.kind for v in violations] == ["cycle"]
        assert "m1 -> m2" in violations[0].detail or (
            "m2 -> m1" in violations[0].detail
        )
        assert metrics.snapshot()["counters"]["concurrency.cycles"] == 1

    def test_double_acquire_raises_before_blocking(self):
        metrics = MetricsRegistry()
        watcher = LockWatcher(metrics=metrics)
        lock = watcher.wrap(threading.Lock(), "map", "map")
        with lock:
            with pytest.raises(LockDisciplineError):
                lock.acquire()
        # The refusal happened before touching the inner lock, so the
        # with-block released cleanly and the lock is reusable.
        with lock:
            pass
        snap = metrics.snapshot()
        assert snap["counters"]["concurrency.double_acquires"] == 1
        assert watcher.violations == ()  # raised, not recorded

    def test_reentrant_wrap_allows_reacquire(self):
        watcher = LockWatcher()
        rlock = watcher.wrap(
            threading.RLock(), "map", "map", reentrant=True
        )
        with rlock:
            with rlock:
                pass
        assert watcher.violations == ()

    def test_wrap_is_idempotent(self):
        watcher = LockWatcher()
        wrapped = watcher.wrap(threading.Lock(), "map", "map")
        assert watcher.wrap(wrapped, "other", "pool") is wrapped

    def test_held_stacks_are_per_thread(self):
        watcher = LockWatcher()
        outer, inner = self.pair(watcher)
        ready = threading.Event()
        done = threading.Event()

        def other():
            ready.wait(5)
            with inner:  # held set here is empty — no edge, no violation
                pass
            done.set()

        worker = threading.Thread(
            target=other, name="xmlrel-test-held", daemon=True
        )
        worker.start()
        with outer:
            ready.set()
            assert done.wait(5)
        worker.join()
        assert watcher.violations == ()
        assert watcher.report()["edges"] == {}

    def test_held_labels_reflects_current_stack(self):
        watcher = LockWatcher()
        outer, inner = self.pair(watcher)
        with outer:
            with inner:
                assert watcher.held_labels() == ("shard[0]", "metrics")
        assert watcher.held_labels() == ()


class TestInstrumentedStore:
    SMALL = "<bib><book year='{y}'><title>T{y}</title></book></bib>"

    def test_live_store_runs_clean_and_idempotent(self, tmp_path):
        watcher = LockWatcher()
        store = ShardedStore.open(
            os.path.join(tmp_path, "store.d"), scheme="interval", shards=2
        )
        instrument_sharded_store(store, watcher)
        catalog_lock = store.shard_map.catalog_lock
        assert isinstance(catalog_lock, OrderedLock)
        # One shim for the one catalog connection's three views.
        assert store.journal.catalog_lock is catalog_lock
        assert store.shard_state.catalog_lock is catalog_lock
        instrument_sharded_store(store, watcher)  # idempotent
        assert store.shard_map.catalog_lock is catalog_lock
        with store:
            ids = [
                store.store_text(self.SMALL.format(y=2000 + i), f"d{i}")
                for i in range(4)
            ]
            for doc_id in ids:
                assert store.query_xml(doc_id, "/bib/book/title")
            assert sum(store.shard_counts().values()) == 4
        watcher.assert_clean()
        report = watcher.report()
        assert report["acquires"] > 0
        assert report["acquires"] == report["releases"]
        assert report["count"] == 0
        # The recorded graph respects the declared order: every edge
        # goes from an outer class to an equal-or-inner one.
        rank_of = {"shard": 0, "map": 1, "pool": 2, "metrics": 3}

        def rank(label):
            return rank_of[label.split(".")[0].split("[")[0]]

        for source, targets in report["edges"].items():
            for target in targets:
                assert rank(source) <= rank(target), (source, target)

    def test_reads_never_wait_on_catalog_sql(self, tmp_path):
        """Routing reads take only the mirrors' short locks: they
        complete while another thread holds the catalog lock (as it
        does across every catalog statement)."""
        with ShardedStore.open(
            os.path.join(tmp_path, "store.d"), scheme="interval", shards=2
        ) as store:
            doc_id = store.store_text(self.SMALL.format(y=1), "d0")
            record = store.resolve(doc_id)
            held, done = threading.Event(), threading.Event()

            def hold_catalog():
                with store.shard_map.catalog_lock:
                    held.set()
                    done.wait(10)

            holder = threading.Thread(
                target=hold_catalog, name="catalog-holder", daemon=True
            )
            holder.start()
            answers = {}

            def read():
                answers["targets"] = store.targets(doc_id)
                answers["scatter"] = store.targets()
                answers["resolve"] = store.resolve(doc_id)
                answers["counts"] = store.shard_counts()

            try:
                assert held.wait(5)
                reader = threading.Thread(
                    target=read, name="catalog-reader", daemon=True
                )
                reader.start()
                reader.join(5)
                assert not reader.is_alive(), "a read waited on the catalog"
            finally:
                done.set()
                holder.join(5)
            assert answers["targets"] == {
                record.shard: [(doc_id, record.local_doc_id)]
            }
            assert answers["scatter"][record.shard] == [
                (doc_id, record.local_doc_id)
            ]
            assert answers["resolve"] == record
            assert sum(answers["counts"].values()) == 1

    def test_instrumented_store_detects_seeded_inversion(self, tmp_path):
        """The harness catches an intentionally inverted pair on a
        live store's own locks."""
        watcher = LockWatcher()
        store = ShardedStore.open(
            os.path.join(tmp_path, "store.d"), scheme="interval", shards=2
        )
        instrument_sharded_store(store, watcher)
        with store:
            store.store_text(self.SMALL.format(y=1), "d0")
            with store.metrics._lock:  # innermost class first...
                with store._shard_locks[0]:  # ...then shard: inverted
                    pass
        violations = watcher.violations
        assert any(
            v.kind == "order" and v.acquired == "shard[0]"
            for v in violations
        )
        with pytest.raises(LockDisciplineError):
            watcher.assert_clean()
