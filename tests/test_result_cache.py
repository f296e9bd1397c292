"""The per-shard result cache (``repro.serve.pool.ResultCache``).

A request that repeats a ``(document, xpath)`` — one document or many,
there is one read path — is answered without SQL and without a pooled
connection; every committed write drops the written document's cached
runs from its shard's pool, and leaves every other document's.  A cache
entry is one ``Run`` — rows and their encoded wire fragment — so the
suites below hold the *response bytes* of every read door (embedded,
executor query and stream, gateway materialized and streamed) to the
in-memory evaluator through generated write/read interleavings, race a
reader against a writer, pin the row budget (and what a full cache
weighs) and the LRU order, and check that a rolled-back write changes
nothing and that a write leaves other documents' runs cached.

Runs under ``XMLREL_LOCK_HARNESS=1`` in CI next to the serving suites.
"""

import gc
import json
import shutil
import sys
import tempfile
import threading
import tracemalloc
import urllib.request
from concurrent.futures import as_completed

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.errors import DeadlineExceeded
from repro.obs.events import RequestLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.ops import parse_prometheus, to_prometheus
from repro.obs.trace import Tracer
from repro.reliability.crashsweep import sweep
from repro.reliability.faults import ShardFaultPolicy, SimulatedCrash
from repro.serve import ShardedStore
from repro.serve import pool as pool_module
from repro.serve.pool import ResultCache, Run
from repro.serve.executor import ScatterResult
from repro.serve.protocol import (
    encode_rows,
    join_fragments,
    ndjson_line,
    result_body,
    result_line,
    rows_event,
)
from repro.xml import parse_document, parse_fragment
from repro.xpath import evaluate_nodes

TEMPLATES = (
    "<inventory>"
    "<shelf m='s1'><box m='b1'><item m='i1'>one</item></box></shelf>"
    "<shelf m='s2'><box m='b2'><item m='i2'>two</item>"
    "<item m='i3'>three</item></box></shelf>"
    "</inventory>",
    "<inventory><shelf m='s1'/></inventory>",
    "<inventory><shelf m='s9'><box m='b9'/></shelf>"
    "<shelf m='s8'><box m='b8'><item m='i2'>two</item></box></shelf>"
    "</inventory>",
)

FRAGMENTS = (
    "<item m='n1'>fresh</item>",
    "<box m='n2'><item m='i2'>v</item></box>",
    "<shelf m='n3'><box m='n4'/></shelf>",
)

QUERIES = (
    "//item",
    "//box/item",
    "/inventory/shelf/box",
    "//item[@m = 'i2']",
    "//shelf[not(box)]",
    "//item/text()",
)

PICK = st.integers(0, 10**6)


def open_store(directory, **kwargs):
    kwargs.setdefault("scheme", "interval")
    kwargs.setdefault("shards", 2)
    kwargs.setdefault("placement", "round_robin")
    kwargs.setdefault("profile", "bulk_load")
    kwargs.setdefault("pool_size", 2)
    return ShardedStore.open(str(directory), **kwargs)


def evaluator_rows(doc_id, document, xpath):
    """What the store must answer for one document: the evaluator's
    nodes as ``(doc_id, pre)``.  The interval scheme renumbers on every
    update, so ``pre`` is the mutated DOM's document order."""
    return [
        (doc_id, node.order_key) for node in evaluate_nodes(document, xpath)
    ]


def acquires(store) -> int:
    """Connections handed out so far, over every pool of the store."""
    counters = store.metrics.snapshot()["counters"]
    return sum(
        value for name, value in counters.items()
        if name.startswith("pool.") and name.endswith(".acquires")
    )


def cache_stats(store, shard):
    return store.pools[shard].result_cache.stats()


# -- (a) generated interleavings against the evaluator -------------------------


class CacheMachine(RuleBasedStateMachine):
    """Writes of every kind interleaved with reads of every kind on a
    2-shard store, its gateway up.  Every
    read is issued twice: both answers — for the gateway doors, what
    the response body decodes to — equal the evaluator's; the repeat —
    a full hit, whether the request names one document or all of them,
    through any of the five doors — hands out no connection.
    ``verify_ok()`` after every step."""

    def __init__(self):
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="xmlrel-result-cache-")
        self.store = open_store(self.directory)
        self.gateway = self.store.serve_gateway()
        #: doc id -> the DOM the store must equal.
        self.docs = {}
        self.stored = 0

    def teardown(self):
        self.store.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    # writes ------------------------------------------------------------------

    @rule(pick=PICK)
    def store_text(self, pick):
        text = TEMPLATES[pick % len(TEMPLATES)]
        self.stored += 1
        doc_id = self.store.store_text(text, name=f"doc-{self.stored}")
        self.docs[doc_id] = parse_document(text)

    def _doc(self, pick):
        doc_id = sorted(self.docs)[pick % len(self.docs)]
        return doc_id, self.docs[doc_id]

    @precondition(lambda self: self.docs)
    @rule(pick=PICK, where=PICK, what=PICK, index=PICK)
    def insert_subtree(self, pick, where, what, index):
        doc_id, document = self._doc(pick)
        parents = [
            element for element in document.iter_elements()
            if element.tag in ("inventory", "shelf", "box")
        ]
        parent = parents[where % len(parents)]
        position = index % (len(parent.children) + 1)
        source = FRAGMENTS[what % len(FRAGMENTS)]
        self.store.insert_subtree(
            doc_id, parent.order_key, parse_fragment(source), position
        )
        parent.insert_child(position, parse_fragment(source))

    @precondition(lambda self: self.docs)
    @rule(pick=PICK, where=PICK)
    def delete_subtree(self, pick, where):
        doc_id, document = self._doc(pick)
        victims = [
            element for element in document.iter_elements()
            if element.tag != "inventory"
        ]
        if not victims:
            return
        victim = victims[where % len(victims)]
        self.store.delete_subtree(doc_id, victim.order_key)
        victim.parent.remove_child(victim)

    @precondition(lambda self: self.docs)
    @rule(pick=PICK)
    def delete(self, pick):
        doc_id, _ = self._doc(pick)
        self.store.delete(doc_id)
        del self.docs[doc_id]

    @precondition(lambda self: self.docs)
    @rule(pick=PICK)
    def rebalance(self, pick):
        doc_id, _ = self._doc(pick)
        self.store.rebalance(doc_id, 1 - self.store.resolve(doc_id).shard)

    # reads -------------------------------------------------------------------

    def _expected(self, xpath, doc_ids):
        rows = []
        for doc_id in doc_ids:
            rows.extend(evaluator_rows(doc_id, self.docs[doc_id], xpath))
        return sorted(rows)

    def _streamed(self, xpath, targets):
        stream = self.store.executor.stream(xpath, targets)
        answers = [answer for _, answer in stream.folded]
        try:
            for future in as_completed(stream.futures, timeout=10):
                answers.append(stream.collect(future)[1])
        finally:
            result = stream.finish()
        rows = sorted(
            row for answer in answers for run in answer.runs
            for row in run.rows
        )
        assert rows == list(result.rows)
        assert json.loads(b"[" + stream.fragment + b"]") == [
            list(row) for row in rows
        ]
        return rows

    def _http(self, xpath, doc_id, streamed):
        """The rows one gateway response body decodes to: materialized
        as sent, streamed as the sorted union of its ``rows`` events."""
        payload = {"xpath": xpath, "stream": streamed}
        if doc_id is not None:
            payload["doc_id"] = doc_id
        request = urllib.request.Request(
            self.gateway.url + "/query",
            data=json.dumps(payload).encode(),
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            raw = response.read()
        if not streamed:
            body = json.loads(raw)
            assert body["row_count"] == len(body["rows"])
            return [tuple(row) for row in body["rows"]]
        events = [json.loads(line) for line in raw.splitlines()]
        assert events[0]["event"] == "start"
        assert events[-1]["event"] == "end"
        rows = [
            tuple(row) for event in events if event["event"] == "rows"
            for row in event["rows"]
        ]
        assert events[-1]["rows"] == len(rows)
        return sorted(rows)

    @rule(
        pick=PICK,
        door=st.sampled_from(
            ("embedded", "query", "stream", "http", "http_stream")
        ),
        one_document=st.booleans(),
    )
    def read(self, pick, door, one_document):
        """Every query of the pool through one door, twice — for one
        document or for all of them."""
        doc_id, doc_ids = None, sorted(self.docs)
        if one_document:
            if not self.docs:
                return
            doc_id, _ = self._doc(pick)
            doc_ids = [doc_id]

        def run(xpath):
            if door == "embedded" and one_document:
                return [
                    (doc_id, pre)
                    for pre in self.store.query_pres(doc_id, xpath)
                ]
            if door == "embedded":
                return list(self.store.query_all(xpath).rows)
            if door == "query":
                return list(self.store.executor.query(
                    xpath, self.store.targets(doc_id)
                ).rows)
            if door == "stream":
                return self._streamed(xpath, self.store.targets(doc_id))
            return self._http(xpath, doc_id, door == "http_stream")

        for xpath in QUERIES:
            expected = self._expected(xpath, doc_ids)
            assert run(xpath) == expected
            before = acquires(self.store)
            assert run(xpath) == expected
            # The repeat ran no SQL, however many documents it names.
            assert acquires(self.store) == before

    @invariant()
    def audits_clean(self):
        assert self.store.verify_ok()


CacheMachine.TestCase.settings = settings(
    max_examples=50, stateful_step_count=30, deadline=None
)
TestGeneratedInterleavings = CacheMachine.TestCase


# -- (a') the wire fragments a cache entry carries ---------------------------------


ROWS = st.lists(
    st.tuples(st.integers(0, 2**40), st.integers(0, 2**40)), max_size=40
).map(tuple)


class TestWireFragments:
    @given(rows=ROWS)
    def test_a_fragment_decodes_to_its_rows(self, rows):
        fragment = encode_rows(rows)
        assert json.loads(b"[" + fragment + b"]") == [list(r) for r in rows]
        assert fragment == ndjson_line([list(r) for r in rows])[1:-2]

    @given(runs=st.lists(ROWS, max_size=6))
    def test_joined_fragments_are_the_fragment_of_the_joined_rows(self, runs):
        joined = join_fragments(encode_rows(rows) for rows in runs)
        assert joined == encode_rows([row for rows in runs for row in rows])

    @given(rows=ROWS, partial=st.booleans())
    def test_spliced_bodies_are_the_encoded_dicts(self, rows, partial):
        """The gateway splices; the parent encoded these dicts — same
        bytes, so same fields in the same order."""
        result = ScatterResult(
            rows=rows, shards_queried=3, elapsed_seconds=0.00123,
            partial=partial,
            failed_shards=((1, 'shard "1" is down'),) if partial else (),
        )
        fragment = encode_rows(rows)
        assert result_line(result, 'req-"7"', fragment) == ndjson_line(
            result_body(result, 'req-"7"')
        )
        assert rows_event(2, fragment) == ndjson_line(
            {"event": "rows", "shard": 2, "rows": [list(r) for r in rows]}
        )


# -- (b) a reader racing a writer ---------------------------------------------------


TOGGLE = "<box m='toggle'><item m='t1'>x</item></box>"


class TestReaderWriterRace:
    def _loaded(self, tmp_path):
        store = open_store(tmp_path)
        ids = [store.store_text(TEMPLATES[0], name=f"d{n}") for n in range(4)]
        return store, ids

    def test_every_answer_is_a_legal_state_and_own_writes_are_seen(
        self, tmp_path
    ):
        """A writer toggles a subtree of one document 200 times while a
        reader hammers one doc-scoped and one scatter query.  Every
        answer is the state before or after the toggle; the first reads
        after each write call returns — the executed doc-scoped one and
        the cache-served scatter — are exactly that write's state."""
        store, ids = self._loaded(tmp_path)
        with store:
            target = ids[1]
            root = store.query_pres(target, "/inventory")[0]
            before = parse_document(TEMPLATES[0])
            after = parse_document(TEMPLATES[0])
            after.root_element.insert_child(0, parse_fragment(TOGGLE))
            doc_legal = [
                [pre for _, pre in evaluator_rows(target, state, "//item")]
                for state in (before, after)
            ]
            scatter_legal = [
                sorted(
                    row for doc_id in ids for row in evaluator_rows(
                        doc_id, state if doc_id == target else before,
                        "//item",
                    )
                )
                for state in (before, after)
            ]
            done = threading.Event()
            illegal = []
            reads = [0]

            def reader():
                while not done.is_set():
                    answer = store.query_pres(target, "//item")
                    if answer not in doc_legal:
                        illegal.append(("doc", answer))
                    answer = list(store.query_all("//item").rows)
                    if answer not in scatter_legal:
                        illegal.append(("scatter", answer))
                    reads[0] += 1

            thread = threading.Thread(
                target=reader, name="cache-race-reader", daemon=True
            )
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            thread.start()
            try:
                for _ in range(100):
                    store.insert_subtree(
                        target, root, parse_fragment(TOGGLE), 0
                    )
                    assert store.query_pres(target, "//item") == doc_legal[1]
                    assert (
                        list(store.query_all("//item").rows)
                        == scatter_legal[1]
                    )
                    toggled = store.query_pres(
                        target, "/inventory/box[@m = 'toggle']"
                    )[0]
                    store.delete_subtree(target, toggled)
                    assert store.query_pres(target, "//item") == doc_legal[0]
                    assert (
                        list(store.query_all("//item").rows)
                        == scatter_legal[0]
                    )
            finally:
                done.set()
                thread.join(timeout=30)
                sys.setswitchinterval(interval)
            assert not thread.is_alive()
            assert not illegal, illegal[:3]
            assert reads[0] > 0
            assert list(store.query_all("//item").rows) == scatter_legal[0]
            assert store.verify_ok()

    def test_rows_read_before_a_commit_are_not_published_after_it(
        self, tmp_path, monkeypatch
    ):
        """Forced interleaving: the reader's statement runs, the write
        commits and bumps the version, only then does the reader reach
        ``put`` — which must store nothing of the written document,
        while the other document of that shard, read under the same
        version and untouched by the write, is cached."""
        store, ids = self._loaded(tmp_path)
        with store:
            target = ids[0]
            shard = store.resolve(target).shard
            cache = store.pools[shard].result_cache
            root = store.query_pres(target, "/inventory")[0]
            stale = sorted(
                row for doc_id in ids for row in evaluator_rows(
                    doc_id, parse_document(TEMPLATES[0]), "//item"
                )
            )
            real_put = cache.put
            reached, release = threading.Event(), threading.Event()

            def held_put(version, doc, xpath, rows):
                # The shard's first document is the target: its
                # statement has run when the reader gets here.
                reached.set()
                assert release.wait(timeout=10)
                real_put(version, doc, xpath, rows)

            monkeypatch.setattr(cache, "put", held_put)
            answers = []
            thread = threading.Thread(
                target=lambda: answers.append(
                    list(store.query_all("//item").rows)
                ),
                name="cache-race-stale-reader",
                daemon=True,
            )
            thread.start()
            assert reached.wait(timeout=10)
            store.insert_subtree(target, root, parse_fragment(TOGGLE), 0)
            release.set()
            thread.join(timeout=10)
            assert not thread.is_alive()
            monkeypatch.undo()
            assert answers == [stale]  # concurrent with the write: legal
            docs = store.targets()[shard]
            assert docs[0][0] == target and len(docs) == 2
            _, found = cache.lookup(docs, "//item")
            assert [run is not None for run in found] == [False, True]
            assert cache.stats()["entries"] == 1
            assert len(store.query_all("//item").rows) == len(stale) + 1


# -- (c) the row budget ----------------------------------------------------------------


class TestBudget:
    @pytest.fixture()
    def cache(self, monkeypatch):
        monkeypatch.setattr(pool_module, "RESULT_CACHE_ROWS", 10)
        return ResultCache(MetricsRegistry(), "pool.test.result_cache")

    @staticmethod
    def rows(doc, count):
        rows = tuple((doc, pre) for pre in range(count))
        return Run(doc, rows, encode_rows(rows))

    def held(self, cache, docs):
        """Which of *docs* are cached, asked without touching the
        counters' meaning for the test: one lookup per call."""
        _, found = cache.lookup([(doc, doc) for doc in docs], "//x")
        return [doc for doc, rows in zip(docs, found) if rows is not None]

    def test_rows_never_exceed_the_budget(self, cache):
        for doc in range(40):
            cache.put(0, (doc, doc), "//x", self.rows(doc, doc % 5))
            assert cache.stats()["rows"] <= 10
        assert cache.stats()["evictions"] > 0

    def test_an_empty_result_is_charged_the_entry_floor(self, cache):
        """An entry weighs about four rows before its first row, so
        that is what an empty answer costs: two fit in ten, not ten."""
        for doc in range(3):
            cache.put(0, (doc, doc), "//x", self.rows(doc, 0))
        stats = cache.stats()
        assert (stats["rows"], stats["entries"], stats["evictions"]) == (
            8, 2, 1,
        )

    def test_a_result_over_the_budget_is_not_stored(self, cache):
        cache.put(0, (1, 1), "//x", self.rows(1, 4))
        cache.put(0, (2, 2), "//x", self.rows(2, 11))
        cache.put(0, (3, 3), "//x", self.rows(3, 7))  # 7 + the floor
        assert self.held(cache, [1, 2, 3]) == [1]
        assert cache.stats()["evictions"] == 0

    def test_the_coldest_entry_goes_first(self, cache):
        cache.put(0, (1, 1), "//x", self.rows(1, 1))
        cache.put(0, (2, 2), "//x", self.rows(2, 1))
        assert self.held(cache, [1]) == [1]  # 1 is now warmer than 2
        cache.put(0, (3, 3), "//x", self.rows(3, 1))
        assert self.held(cache, [1, 2, 3]) == [1, 3]

    def test_replacing_an_entry_recounts_it(self, cache):
        cache.put(0, (1, 1), "//x", self.rows(1, 6))
        cache.put(0, (1, 1), "//x", self.rows(1, 2))
        assert cache.stats()["rows"] == pool_module._cost(self.rows(1, 2))

    @pytest.mark.parametrize("rows_each", (0, 1, 64))
    def test_a_full_cache_stays_under_the_documented_ceiling(self, rows_each):
        """Single-document value-literal reads make key cardinality
        unbounded and most answers empty.  Whatever fills it, a full
        cache at the real budget weighs what ``RESULT_CACHE_ROWS``'s
        comment says — measured, not computed.  (Charged by rows alone,
        32 768 empty answers traced 10.2 MB.)"""
        cache = ResultCache(MetricsRegistry(), "pool.test.result_cache")
        puts = 2 * pool_module.RESULT_CACHE_ROWS // (rows_each + 1)
        gc.collect()
        tracemalloc.start()
        try:
            baseline, _ = tracemalloc.get_traced_memory()
            for n in range(puts):
                doc = n % 16
                # Fresh objects throughout, as a request makes them: its
                # own xpath string, sqlite's ints, the encoded bytes.
                rows = tuple(
                    (doc, 1000 + n * rows_each + k) for k in range(rows_each)
                )
                cache.put(
                    0, (doc, doc + 1),
                    f"/site/people/person[@id = 'person{n:06d}']/name",
                    Run(doc, rows, encode_rows(rows)),
                )
            traced, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        stats = cache.stats()
        assert stats["evictions"] > 0  # it was full
        assert stats["rows"] <= pool_module.RESULT_CACHE_ROWS
        assert traced - baseline < 4_000_000, stats

    def test_a_dead_version_is_refused(self, cache):
        version, _ = cache.lookup([(1, 1)], "//x")
        assert cache.invalidate() == version + 1
        cache.put(version, (1, 1), "//x", self.rows(1, 2))
        assert cache.stats()["entries"] == 0
        cache.put(version + 1, (1, 1), "//x", self.rows(1, 2))
        assert cache.stats()["entries"] == 1

    def test_a_document_write_refuses_only_that_documents_rows(self, cache):
        version, _ = cache.lookup([(1, 1), (2, 2)], "//x")
        cache.put(version, (1, 1), "//x", self.rows(1, 1))
        assert cache.invalidate_doc(1) == version + 1
        assert self.held(cache, [1]) == []
        cache.put(version, (1, 1), "//x", self.rows(1, 1))  # read before
        cache.put(version, (2, 2), "//x", self.rows(2, 1))  # untouched
        assert self.held(cache, [1, 2]) == [2]
        cache.put(version + 1, (1, 1), "//x", self.rows(1, 1))
        assert self.held(cache, [1, 2]) == [1, 2]
        assert cache.stats()["rows"] == 2 * pool_module._cost(
            self.rows(1, 1)
        )

    def test_a_shard_write_refuses_every_older_version(self, cache):
        version, _ = cache.lookup([(1, 1)], "//x")
        cache.invalidate_doc(1)
        cache.invalidate()
        cache.put(version + 1, (2, 2), "//x", self.rows(2, 1))
        assert self.held(cache, [2]) == []

    def test_a_reused_local_id_is_another_key(self, cache):
        """Local ids are rowids, reused after a delete: rows read for
        ``(global 1, local 5)`` must not answer ``(global 2, local 5)``."""
        cache.put(0, (1, 5), "//x", self.rows(1, 2))
        _, found = cache.lookup([(2, 5)], "//x")
        assert found == [None]


# -- (d) failed writes --------------------------------------------------------------------


class TestFailedWrites:
    def test_a_rolled_back_write_neither_invalidates_nor_poisons(
        self, tmp_path
    ):
        policy = ShardFaultPolicy()
        with open_store(tmp_path, shards=1, fault_policy=policy) as store:
            doc = store.store_text(TEMPLATES[0], name="a")
            store.store_text(TEMPLATES[0], name="b")
            root = store.query_pres(doc, "/inventory")[0]
            items = store.query_all("//item").rows
            warm = cache_stats(store, 0)
            policy.crash_shard(0, 3)  # mid-update, before its commit
            with pytest.raises(SimulatedCrash):
                store.insert_subtree(doc, root, parse_fragment(TOGGLE), 0)
            policy.heal_all()
            store.recover()
            after = cache_stats(store, 0)
            assert after["version"] == warm["version"]
            assert after["invalidations"] == warm["invalidations"]
            # Both documents' items, and the root lookup above.
            assert after["entries"] == warm["entries"] == 3
            # The cached answer and a fresh statement agree: nothing of
            # the rolled-back update is visible either way.
            assert store.query_all("//item").rows == items
            assert cache_stats(store, 0)["hits"] == after["hits"] + 2
            assert store.query_all("//box/item").rows == items
            store.insert_subtree(doc, root, parse_fragment(TOGGLE), 0)
            assert len(store.query_all("//item").rows) == len(items) + 1
            assert store.verify_ok()

    def test_the_crash_sweep_stays_green(self):
        """Every statement boundary of insert, delete, rebalance and
        load on the renumbering scheme; the sweep's observation
        includes a read the result cache serves."""
        report = sweep(schemes=["interval"])
        assert report["points_run"] > 0
        assert report["points_failed"] == 0, [
            point for point in report["points"] if not point["ok"]
        ][:3]


# -- (e) hits, connections, deadlines, and what observers see ------------------


class TestHits:
    @staticmethod
    def first_two(store):
        """Targets naming the first two documents of shard 0 only."""
        return {0: store.shard_map.docs_for_shard(0)[:2]}

    def test_a_full_hit_acquires_nothing(self, tmp_path):
        with open_store(tmp_path) as store:
            for n in range(4):
                store.store_text(TEMPLATES[0], name=f"d{n}")
            first = store.query_all("//item")
            before = acquires(store)
            assert store.query_all("//item").rows == first.rows
            assert acquires(store) == before
            for shard in store.pools:
                stats = cache_stats(store, shard)
                assert stats["hits"] == 2 and stats["rows"] > 0

    def test_a_single_document_request_is_served_from_the_cache(
        self, tmp_path
    ):
        log = RequestLog(capacity=16)
        tracer = Tracer()
        with open_store(tmp_path, request_log=log, tracer=tracer) as store:
            ids = [
                store.store_text(TEMPLATES[0], name=f"d{n}") for n in range(4)
            ]
            expected = [
                pre for _, pre in evaluator_rows(
                    ids[0], parse_document(TEMPLATES[0]), "//item"
                )
            ]
            shard = store.resolve(ids[0]).shard
            cold = cache_stats(store, shard)
            assert store.query_pres(ids[0], "//item") == expected
            held = cache_stats(store, shard)
            assert held["misses"] == cold["misses"] + 1
            assert held["entries"] == cold["entries"] + 1
            before = acquires(store)
            tracer.reset()
            assert store.query_pres(ids[0], "//item") == expected
            assert acquires(store) == before
            after = cache_stats(store, shard)
            assert after["hits"] == held["hits"] + 1
            assert after["misses"] == held["misses"]
            assert after["entries"] == held["entries"]
            events = [e for e in log.tail() if e["event"] == "query"]
            assert [e["per_shard"][0]["result_cache"] for e in events] == [
                "miss", "hit",
            ]
            (root,) = [r for r in tracer.roots if r.name == "serve.query"]
            spans = {span.name: span for span in root.walk()}
            assert spans["serve.execute"].attributes["result_cache"] == "hit"
            assert "sql.statement" not in spans
            # The entry a single-document read published is the one a
            # scatter over the same document finds, and the other way
            # round: one key space, whoever asked first.
            scattered = store.query_all("//item")
            assert cache_stats(store, shard)["hits"] == after["hits"] + 1
            assert [
                pre for doc, pre in scattered.rows if doc == ids[0]
            ] == expected
            before = acquires(store)
            assert store.query_pres(ids[1], "//item") == [
                pre for doc, pre in scattered.rows if doc == ids[1]
            ]
            assert acquires(store) == before

    def test_doc_scoped_counts_shards_on_hit_and_miss_alike(self, tmp_path):
        """The one definition of "doc-scoped" left: a request whose
        targets name at most one shard.  It picks the counter, not the
        read path — a ``doc_id`` request lands in
        ``serve.doc_scoped_queries`` whether it executes or hits."""
        with open_store(tmp_path) as store:
            ids = [
                store.store_text(TEMPLATES[0], name=f"d{n}") for n in range(4)
            ]

            def counted():
                counters = store.metrics.snapshot()["counters"]
                return (
                    counters.get("serve.doc_scoped_queries", 0),
                    counters.get("serve.scatter_queries", 0),
                    cache_stats(store, store.resolve(ids[0]).shard)["hits"],
                )

            start = counted()
            store.query_pres(ids[0], "//item")          # miss
            miss = counted()
            store.query_pres(ids[0], "//item")          # hit
            hit = counted()
            assert miss == (start[0] + 1, start[1], start[2])
            assert hit == (start[0] + 2, start[1], start[2] + 1)
            # Two documents of one shard are still one shard ...
            store.executor.query("//item", self.first_two(store))
            # ... and every shard is a scatter, cached or not.
            store.query_all("//item")
            store.query_all("//item")
            doc_scoped, scatter, _ = counted()
            assert (doc_scoped, scatter) == (start[0] + 3, start[1] + 2)

    def test_a_full_hit_still_honours_an_expired_deadline(self, tmp_path):
        with open_store(tmp_path) as store:
            doc = store.store_text(TEMPLATES[0], name="a")
            store.store_text(TEMPLATES[0], name="b")
            store.query_all("//item")
            with pytest.raises(DeadlineExceeded):
                store.query_all("//item", deadline=0.0)
            with pytest.raises(DeadlineExceeded):
                store.query_pres(doc, "//item", deadline=0.0)

    def test_a_cached_answer_outlives_its_shards_connections(
        self, tmp_path
    ):
        """A shard whose every statement fails is only *down* for a
        request that has to reach it: the cached answer is complete
        (no committed write can have happened on a shard that is down,
        so the entry's version is still current), a miss is partial and
        names the shard, and healing makes both complete."""
        policy = ShardFaultPolicy()
        with open_store(
            tmp_path, shards=3, on_shard_error="partial",
            fault_policy=policy,
        ) as store:
            for n in range(6):
                store.store_text(TEMPLATES[0], name=f"d{n}")
            url = store.serve_gateway().url + "/query"

            def http(xpath):
                request = urllib.request.Request(
                    url, data=json.dumps({"xpath": xpath}).encode(),
                    method="POST",
                )
                with urllib.request.urlopen(request, timeout=10) as reply:
                    return reply.status, json.loads(reply.read())

            warm = store.query_all("//item")
            policy.fail_shard(1)
            before = acquires(store)
            cached = store.query_all("//item")
            status, body = http("//item")
            assert acquires(store) == before
            assert not cached.partial and not cached.failed_shards
            assert cached.rows == warm.rows
            assert status == 200 and not body["partial"]
            assert "failed_shards" not in body
            assert policy.faults_served == {}

            missed = store.query_all("//box/item")
            status, body = http("/inventory/shelf/box")
            assert missed.partial
            assert [shard for shard, _ in missed.failed_shards] == [1]
            assert 0 < len(missed.rows) < len(warm.rows)
            assert status == 206 and body["partial"]
            assert [f["shard"] for f in body["failed_shards"]] == [1]

            policy.heal_all()
            for xpath in ("//item", "//box/item"):
                healed = store.query_all(xpath)
                assert not healed.partial
                assert healed.rows == warm.rows
            status, body = http("/inventory/shelf/box")
            assert status == 200 and not body["partial"]

    def test_a_partial_hit_executes_only_the_missing_documents(
        self, tmp_path
    ):
        with open_store(tmp_path, shards=1) as store:
            ids = [
                store.store_text(text, name=f"d{n}")
                for n, text in enumerate(TEMPLATES)
            ]
            store.executor.query("//item", self.first_two(store))
            before = cache_stats(store, 0)
            result = store.query_all("//item")
            after = cache_stats(store, 0)
            assert after["hits"] == before["hits"] + 2
            assert after["misses"] == before["misses"] + 1
            assert result.doc_ids() == [ids[0], ids[2]]

    def test_the_wide_event_and_metrics_report_without_perturbing(
        self, tmp_path
    ):
        log = RequestLog(capacity=16)
        with open_store(tmp_path, shards=1, request_log=log) as store:
            for n, text in enumerate(TEMPLATES):
                store.store_text(text, name=f"d{n}")
            store.executor.query("//item", self.first_two(store))  # miss
            store.query_all("//item")                              # partial
            store.query_all("//item")                              # hit
            seen = [
                event["per_shard"][0]["result_cache"]
                for event in log.tail() if event["event"] == "query"
            ]
            assert seen == ["miss", "partial", "hit"]
            stats = cache_stats(store, 0)
            # 2 + 3 + 3 lookups: the events above added none.
            assert (stats["hits"], stats["misses"]) == (5, 3)
            assert store.pools[0].stats()["result_cache"] == stats
            counters = store.metrics.snapshot()["counters"]
            assert counters["pool.shard0.result_cache.hits"] == 5
            assert counters["pool.shard0.result_cache.misses"] == 3
            gauges = store.metrics.snapshot()["gauges"]
            assert (
                gauges["pool.shard0.result_cache.rows"]["value"]
                == stats["rows"]
            )
            scraped = {
                sample["name"]: sample["value"] for sample in
                parse_prometheus(to_prometheus(store.metrics))["samples"]
            }
            assert scraped["xmlrel_pool_shard0_result_cache_hits_total"] == 5

    def test_a_write_keeps_the_other_documents_cached_runs(
        self, tmp_path
    ):
        """A write to document A drops only A's runs: B, on the same
        shard, is answered from the cache — no connection, no SQL — and
        a scatter right after the write equals the evaluator."""
        tracer = Tracer()
        with open_store(tmp_path, shards=1, tracer=tracer) as store:
            a = store.store_text(TEMPLATES[0], name="a")
            b = store.store_text(TEMPLATES[2], name="b")
            root = store.query_pres(a, "/inventory")[0]
            b_items = store.query_pres(b, "//item")
            store.query_all("//item")
            store.insert_subtree(a, root, parse_fragment(TOGGLE), 0)
            before, hits = acquires(store), cache_stats(store, 0)["hits"]
            tracer.reset()
            assert store.query_pres(b, "//item") == b_items
            assert acquires(store) == before
            assert cache_stats(store, 0)["hits"] == hits + 1
            assert not [
                span for root_span in tracer.roots
                for span in root_span.walk() if span.name == "sql.statement"
            ]
            edited = parse_document(TEMPLATES[0])
            edited.root_element.insert_child(0, parse_fragment(TOGGLE))
            expected = sorted(
                evaluator_rows(a, edited, "//item")
                + evaluator_rows(b, parse_document(TEMPLATES[2]), "//item")
            )
            assert list(store.query_all("//item").rows) == expected
            # A's run was read again, B's was not.
            assert cache_stats(store, 0)["hits"] == hits + 2
            assert store.verify_ok()

    def test_a_deleted_documents_runs_go_and_its_neighbours_stay(
        self, tmp_path
    ):
        with open_store(tmp_path, shards=1) as store:
            a = store.store_text(TEMPLATES[0], name="a")
            b = store.store_text(TEMPLATES[2], name="b")
            store.query_all("//item")
            held = cache_stats(store, 0)
            store.delete(a)
            after = cache_stats(store, 0)
            assert (after["entries"], after["invalidations"]) == (
                held["entries"] - 1, held["invalidations"] + 1,
            )
            before = acquires(store)
            assert store.query_all("//item").doc_ids() == [b]
            assert acquires(store) == before
