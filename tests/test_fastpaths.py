"""Hot-path fast lanes: plan cache, batched reconstruction, bulk loads.

Three families of differential tests pin the fast lanes to the slow
paths they replace:

* batched ``query_nodes`` / ``fetch_records_many`` must be byte-identical
  to per-``pre`` subtree publishing, for every scheme, on real
  workload documents;
* cached translations must execute identically to cold ones — including
  after the data-dependent schemes (universal, binary) change shape
  under an update or delete;
* a bulk-load session must produce the same stored documents as
  per-document stores, atomically.
"""

import sqlite3
from itertools import groupby

import pytest

from repro import XmlRelStore, parse_document, parse_fragment, serialize
from repro.errors import StorageError, UnsupportedQueryError
from repro.obs.trace import Tracer
from repro.storage.base import ROOTS
from repro.updates import insert_subtree
from repro.workloads import (
    AUCTION_QUERIES,
    DBLP_QUERIES,
    auction_dtd,
    dblp_dtd,
    generate_auction,
    generate_dblp,
)
from repro.xpath import evaluate_nodes
from repro.xpath.parser import parse_xpath
from tests.conftest import BIB_XML, SCHEMALESS_SCHEMES

ALL_SCHEMES = SCHEMALESS_SCHEMES + ["inlining"]

SCALE = 0.05
SEED = 42


@pytest.fixture(scope="module")
def auction_doc():
    return generate_auction(SCALE, seed=SEED)


@pytest.fixture(scope="module")
def dblp_doc():
    return generate_dblp(40, seed=SEED)


@pytest.fixture()
def linted(monkeypatch):
    """Every statement the plan linter walks during the test."""
    from repro.analysis import sqllint

    walked = []
    real_lint = sqllint.lint_statement

    def counting(statement, catalog):
        walked.append(statement)
        return real_lint(statement, catalog)

    monkeypatch.setattr(sqllint, "lint_statement", counting)
    return walked


def open_scheme_store(name, workload="auction", tracer=None):
    kwargs = {}
    if name == "inlining":
        kwargs["dtd"] = (
            auction_dtd() if workload == "auction" else dblp_dtd()
        )
    return XmlRelStore.open(scheme=name, tracer=tracer, **kwargs)


class TestBatchedReconstruction:
    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_auction_queries_identical(self, scheme_name, auction_doc):
        with open_scheme_store(scheme_name, "auction") as store:
            doc_id = store.store(auction_doc, "auction")
            matched = 0
            for spec in AUCTION_QUERIES:
                try:
                    pres = store.query_pres(doc_id, spec.xpath)
                except UnsupportedQueryError:
                    continue
                batched = [
                    serialize(n) for n in store.query(doc_id, spec.xpath)
                ]
                per_pre = [
                    serialize(store.reconstruct_subtree(doc_id, pre))
                    for pre in pres
                ]
                assert batched == per_pre, spec.key
                matched += len(pres)
            assert matched > 0

    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_dblp_queries_identical(self, scheme_name, dblp_doc):
        with open_scheme_store(scheme_name, "dblp") as store:
            doc_id = store.store(dblp_doc, "dblp")
            matched = 0
            for spec in DBLP_QUERIES:
                try:
                    pres = store.query_pres(doc_id, spec.xpath)
                except UnsupportedQueryError:
                    continue
                batched = [
                    serialize(n) for n in store.query(doc_id, spec.xpath)
                ]
                per_pre = [
                    serialize(store.reconstruct_subtree(doc_id, pre))
                    for pre in pres
                ]
                assert batched == per_pre, spec.key
                matched += len(pres)
            assert matched > 0

    @pytest.mark.parametrize("scheme_name", SCHEMALESS_SCHEMES)
    def test_fetch_records_many_equals_per_root(self, scheme_name):
        with open_scheme_store(scheme_name) as store:
            doc_id = store.store_text(BIB_XML, "bib")
            scheme = store.scheme
            pres = store.query_pres(doc_id, "//author")
            assert pres
            batched = scheme.fetch_records_many(doc_id, pres)
            runs = [root for root, _ in groupby(row[0] for row in batched)]
            assert sorted(runs) == pres  # one contiguous run per root
            for pre in pres:
                run = [row for row in batched if row[0] == pre]
                assert run == scheme.fetch_records_many(doc_id, [pre])
                assert run[0][1] == pre

    @pytest.mark.parametrize(
        "scheme_name", ["edge", "binary", "interval", "dewey", "xrel"]
    )
    def test_any_root_count_is_one_fetch_statement(self, scheme_name):
        # The roots bind as one JSON array: one statement for 1, 150 or
        # 40 000 roots — the last past sqlite's 32 766 bind variables.
        # Binary reads its catalog, the roots and then one level per
        # statement, so its count follows the subtrees' shape, never
        # the root count, and no statement reads the all-partitions
        # view.
        tracer = Tracer()
        with open_scheme_store(scheme_name, tracer=tracer) as store:
            scheme = store.scheme

            def fetch(doc_id, roots):
                before = len(tracer.spans_named("sql.statement"))
                seen = []  # full text: span attributes clip it
                store.db._conn.set_trace_callback(seen.append)
                try:
                    rows = scheme.fetch_records_many(doc_id, roots)
                finally:
                    store.db._conn.set_trace_callback(None)
                statements = tracer.spans_named("sql.statement")[before:]
                if scheme_name == "binary":
                    assert not any("binary_edges" in sql for sql in seen)
                else:
                    assert len(statements) == 1, len(roots)
                runs = {
                    root: list(run)
                    for root, run in groupby(rows, lambda row: row[0])
                }
                assert len(runs) == len(roots)  # one contiguous run each
                return runs, len(statements)

            small = store.store_text(
                "<r>" + '<x k="a">v<y/></x>' * 150 + "</r>", "small"
            )
            pres = store.query_pres(small, "/r/x")
            counts = set()
            for count in (1, 150):
                runs, statements = fetch(small, pres[:count])
                counts.add(statements)
                for root in pres[:count]:
                    assert runs[root] == scheme.fetch_records_many(
                        small, [root]
                    )
            assert len(counts) == 1, counts
            wide = store.store_text("<r>" + "<x>v</x>" * 40_000 + "</r>")
            pres = store.query_pres(wide, "/r/x")
            runs, statements = fetch(wide, pres)
            assert statements == fetch(wide, pres[:1])[1]
            for root in pres[::9_999]:
                assert runs[root] == scheme.fetch_records_many(wide, [root])
            assert all(len(run) == 2 for run in runs.values())

    def test_inlining_statements_follow_relation_depth(self, auction_doc):
        # Inlining probes every relation's key for the roots, then reads
        # one relation level per statement, each only from the relations
        # the DTD lets that level's positions hold: the count follows
        # the relation depth below the roots, never the root count.
        tracer = Tracer()
        with open_scheme_store("inlining", tracer=tracer) as store:
            doc_id = store.store(auction_doc, "auction")
            scheme = store.scheme
            relations = scheme.mapping.relations

            def fetch(roots):
                before = len(tracer.spans_named("sql.statement"))
                seen = []  # full text: span attributes clip it
                store.db._conn.set_trace_callback(seen.append)
                try:
                    scheme.fetch_records_many(doc_id, roots)
                finally:
                    store.db._conn.set_trace_callback(None)
                statements = tracer.spans_named("sql.statement")[before:]
                assert len(statements) == len(seen)
                # the first statement probes every relation for the roots
                assert all(r.table.name in seen[0] for r in relations.values())
                return seen

            # an item: the roots, then its quantity/name/description rows
            items = store.query_pres(doc_id, "//item")
            single = [len(fetch([pre])) for pre in items]
            assert len(fetch(items)) == max(single) == 2, set(single)
            # an auction: the roots, bidder/itemref/seller, its bids' dates
            (auction,) = store.query_pres(
                doc_id, "/site/open_auctions/open_auction[1]"
            )
            assert store.query_pres(
                doc_id, "/site/open_auctions/open_auction[1]/bidder/date"
            )
            seen = fetch([auction])
            assert len(seen) == 3
            reachable = scheme.mapping.graph.reachable("open_auction")
            unreachable = [
                relation.table.name
                for element, relation in relations.items()
                if element not in reachable | {"open_auction"}
            ]
            assert unreachable
            for sql in seen[1:]:
                assert not any(table in sql for table in unreachable), sql
            # a root that is not a relation row reads the whole document
            (email,) = store.query_pres(
                doc_id, "/site/people/person[1]/emailaddress"
            )
            assert len(fetch([email])) == 1 + len(relations)

    def test_universal_reads_every_path_for_any_root_count(
        self, auction_doc
    ):
        tracer = Tracer()
        with open_scheme_store("universal", tracer=tracer) as store:
            doc_id = store.store(auction_doc, "auction")
            paths = store.db.scalar(
                "SELECT COUNT(*) FROM universal_paths WHERE doc_id = ?",
                (doc_id,),
            )
            people = store.query_pres(doc_id, "/site/people/person")
            for roots in (people[:1], people, []):
                before = len(tracer.spans_named("sql.statement"))
                store.scheme.fetch_records_many(doc_id, roots)
                statements = len(tracer.spans_named("sql.statement")) - before
                # the label map, the path list, a read per path
                assert statements == (2 + paths if roots else 0)

    def test_sqlite_has_json_each(self):
        # Every batched subtree fetch binds its roots through json_each
        # (storage.base.ROOTS): a sqlite built without JSON1 cannot
        # publish query results.
        with XmlRelStore.open(scheme="interval") as store:
            try:
                rows = store.db.query(ROOTS, ("[3, 1, 2]",))
            except sqlite3.OperationalError as error:
                pytest.fail(
                    f"this sqlite ({sqlite3.sqlite_version}) lacks the "
                    f"JSON1 function json_each: {error}"
                )
        assert rows == [(3,), (1,), (2,)]

    def test_missing_root_raises(self):
        with open_scheme_store("interval") as store:
            doc_id = store.store_text(BIB_XML, "bib")
            with pytest.raises(StorageError, match="no stored node"):
                store.scheme.reconstruct_subtrees(doc_id, [999999])

    def test_reconstruction_statement_count_is_flat(self, auction_doc):
        # The batched fast lane issues O(1) statements per query, not
        # O(N): with warm plans a 1-result query and a 25-result query
        # run the same number of SQL statements under every scheme.
        # Universal reads its document one path at a time, so its count
        # follows the document's paths, never the roots.  Binary reads
        # one tree level per statement: many roots cost what the one
        # with the most levels below it costs alone.
        for scheme_name in ALL_SCHEMES:
            tracer = Tracer()
            with open_scheme_store(scheme_name, tracer=tracer) as store:
                doc_id = store.store(auction_doc, "auction")

                def statements_for(xpath):
                    store.query_xml(doc_id, xpath)  # warm the plan
                    before = len(tracer.spans_named("sql.statement"))
                    published = store.query_xml(doc_id, xpath)
                    return (
                        len(published),
                        len(tracer.spans_named("sql.statement")) - before,
                    )

                narrow_n, narrow_stmts = statements_for(
                    "/site/regions/asia/item"
                )
                wide_n, wide_stmts = statements_for("/site/people/person")
                assert (narrow_n, wide_n) == (1, 25), scheme_name
                if scheme_name == "binary":
                    assert wide_stmts == max(
                        statements_for(f"/site/people/person[{n}]")[1]
                        for n in range(1, 26)
                    )
                else:
                    assert narrow_stmts == wide_stmts, scheme_name
                if scheme_name == "universal":
                    paths = store.db.scalar(
                        "SELECT COUNT(*) FROM universal_paths "
                        "WHERE doc_id = ?", (doc_id,),
                    )
                    # the query, the label map, the path list, a read
                    # per path
                    assert wide_stmts == 3 + paths

    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_text_publishing_builds_no_events(
        self, scheme_name, auction_doc, monkeypatch
    ):
        # Stored rows have one writer per output: text is write_records,
        # rows to XML in one loop; only the tree lane makes events.
        from repro.storage import base

        class EventsBuilt(Exception):
            pass

        def refuse(rows):
            raise EventsBuilt

        items = [serialize(n) for n in evaluate_nodes(auction_doc, "//item")]
        with open_scheme_store(scheme_name) as store:
            doc_id = store.store(auction_doc, "auction")
            monkeypatch.setattr(base, "records_to_events", refuse)
            assert store.query_xml(doc_id, "//item") == items
            assert store.reconstruct_xml(doc_id) == serialize(auction_doc)
            with pytest.raises(EventsBuilt):
                store.query(doc_id, "//item")

    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_reconstruct_span_counts_the_rows_fetched(
        self, scheme_name, auction_doc
    ):
        tracer = Tracer()
        with open_scheme_store(scheme_name, tracer=tracer) as store:
            doc_id = store.store(auction_doc, "auction")
            pres = store.query_pres(doc_id, "//item")
            rows = store.scheme.fetch_records_many(doc_id, pres)
            for publish in (store.query_xml, store.query):
                publish(doc_id, "//item")
                span = tracer.spans_named("reconstruct")[-1]
                assert span.attributes["rows"] == len(rows), publish
                assert span.attributes["nodes"] == len(pres)
            store.query_xml(doc_id, "/site/nothing")
            span = tracer.spans_named("reconstruct")[-1]
            assert span.attributes["rows"] == 0


class TestPlanCache:
    def test_warm_results_identical_to_cold(self):
        with open_scheme_store("interval") as store:
            doc_id = store.store_text(BIB_XML, "bib")
            xpath = "/bib/book[@year = '2000']/title"
            cold = store.query_pres(doc_id, xpath)
            warm = store.query_pres(doc_id, xpath)
            assert cold == warm
            stats = store.db.plan_cache.stats()
            assert stats["hits"] >= 1
            assert stats["misses"] >= 1

    def test_counters_reach_metrics(self):
        tracer = Tracer()
        with XmlRelStore.open(scheme="interval", tracer=tracer) as store:
            doc_id = store.store_text(BIB_XML, "bib")
            store.query_pres(doc_id, "//title")
            store.query_pres(doc_id, "//title")
            counters = tracer.metrics.snapshot()["counters"]
            assert counters["plan_cache.misses"] >= 1
            assert counters["plan_cache.hits"] >= 1

    def test_query_report_exposes_cache_state(self):
        with open_scheme_store("interval") as store:
            doc_id = store.store_text(BIB_XML, "bib")
            first = store.query_report(doc_id, "/bib/book/title")
            second = store.query_report(doc_id, "/bib/book/title")
            assert not first.cache_hit
            assert second.cache_hit
            assert second.pres == first.pres
            assert second.cache_hits > first.cache_hits
            assert "plan cache: hit" in second.format()

    def test_union_plans_cached(self):
        with open_scheme_store("interval") as store:
            doc_id = store.store_text(BIB_XML, "bib")
            xpath = "/bib/book/title | /bib/article/title"
            cold = store.query_pres(doc_id, xpath)
            warm = store.query_pres(doc_id, xpath)
            assert cold == warm and len(cold) == 3
            assert store.db.plan_cache.stats()["hits"] >= 1

    @pytest.mark.parametrize("xpath", [
        "/bib/book[@year = '2000']/title",
        "/bib/book/title | /bib/article/title",
        "count(/bib)",
    ])
    def test_a_cache_miss_parses_the_xpath_once(self, monkeypatch, xpath):
        # plans_for parses to look for union arms and hands translate()
        # the AST, not the string again; a hit parses nothing, and what
        # cannot be planned is not cached.
        from repro.query import plan, translator

        calls = []

        def counting(text):
            calls.append(text)
            return parse_xpath(text)

        monkeypatch.setattr(plan, "parse_xpath", counting)
        monkeypatch.setattr(translator, "parse_xpath", counting)
        with open_scheme_store("interval") as store:
            doc_id = store.store_text(BIB_XML, "bib")
            for _ in range(2):
                try:
                    store.query_pres(doc_id, xpath)
                except UnsupportedQueryError as error:
                    assert "not a location path: count(/bib)" in str(error)
        assert calls == [xpath] * (2 if xpath == "count(/bib)" else 1)

    def test_a_warm_lookup_neither_translates_nor_lints(
        self, linted, auction_doc
    ):
        # A traced miss translates once and lints what it rendered (its
        # translate span reads the verdict; arms that render the same SQL
        # share one lint); the hit that follows does neither and answers
        # the same.
        xpaths = (
            "/site/people/person[@id = 'person0']/name",
            "/site/open_auctions/open_auction/bidder[1]/increase",
            "/site/regions/africa/item/name | /site/regions/asia/item/name"
            " | /site/closed_auctions/closed_auction/price",
        )
        tracer = Tracer()
        with open_scheme_store("interval", tracer=tracer) as store:
            doc_id = store.store(auction_doc, "auction")
            cold = [store.query_pres(doc_id, xpath) for xpath in xpaths]
            assert len(tracer.spans_named("translate")) == len(xpaths)
            lints = len(linted)
            assert lints >= len(xpaths)
            warm = [store.query_pres(doc_id, xpath) for xpath in xpaths]
            assert warm == cold and all(cold)
            assert len(tracer.spans_named("translate")) == len(xpaths)
            assert len(linted) == lints
            assert store.db.plan_cache.stats()["hits"] == len(xpaths)

    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_an_untraced_cold_pass_lints_nothing(
        self, linted, scheme_name, auction_doc
    ):
        # The paper's Q1-Q16 on a fresh store: every query translates
        # cold and nobody reads a verdict, so no plan is linted.  The
        # first query_report that asks walks its one statement.
        with open_scheme_store(scheme_name) as store:
            doc_id = store.store(auction_doc, "auction")
            answered = []
            for spec in AUCTION_QUERIES:
                try:
                    store.query_pres(doc_id, spec.xpath)
                except UnsupportedQueryError:
                    continue
                answered.append(spec.xpath)
            assert answered and linted == []
            store.query_report(doc_id, answered[0])
            assert len(linted) == 1

    def test_literal_variants_share_one_pending_lint(
        self, linted, auction_doc
    ):
        # Literals are parameters, so these render one SQL text: its
        # plans share one pending walk, which runs once for all of them.
        xpaths = [
            f"/site/people/person[@id = 'person{i}']/name" for i in range(5)
        ]
        with open_scheme_store("interval") as store:
            doc_id = store.store(auction_doc, "auction")
            translator = store.scheme.translator()
            plans = [translator.plans_for(doc_id, x)[0][0] for x in xpaths]
            assert len({plan.sql for plan in plans}) == 1
            assert len(store.db.lint_memo) == 1 and linted == []
            assert len({plan.diagnostics for plan in plans}) == 1
            assert len(linted) == 1

    def test_universal_store_invalidates(self):
        # Universal bakes the known-label set into the SQL: an unknown
        # label compiles to an always-false plan.  Storing a document
        # that introduces the label must invalidate that cached plan.
        with open_scheme_store("universal") as store:
            first = store.store_text("<a><b>x</b></a>", "one")
            assert store.query_pres(first, "/a/c") == []
            second = store.store_text("<a><c>y</c></a>", "two")
            assert len(store.query_pres(second, "/a/c")) == 1

    def test_binary_update_invalidates(self):
        # insert_subtree can create a partition for a never-seen label;
        # cached plans that resolved the label to "no partition" go
        # stale and must be dropped.
        with open_scheme_store("binary") as store:
            doc_id = store.store_text("<a><b>x</b></a>", "doc")
            assert store.query_pres(doc_id, "/a/c") == []
            root_pre = store.query_pres(doc_id, "/a")[0]
            insert_subtree(
                store.scheme, doc_id, root_pre, parse_fragment("<c>z</c>")
            )
            assert len(store.query_pres(doc_id, "/a/c")) == 1

    def test_delete_invalidates_data_dependent_plans(self):
        with open_scheme_store("universal") as store:
            doc_id = store.store_text("<a><b>x</b></a>", "doc")
            epoch = store.scheme.plan_epoch
            store.query_pres(doc_id, "/a/b")
            store.delete(doc_id)
            assert store.scheme.plan_epoch > epoch

    def test_lru_eviction_is_bounded(self):
        with open_scheme_store("interval") as store:
            doc_id = store.store_text(BIB_XML, "bib")
            cache = store.db.plan_cache
            capacity = cache.capacity
            for i in range(capacity + 10):
                store.query_pres(doc_id, f"/bib/book[{(i % 9) + 1}]")
            assert len(cache) <= capacity


class TestBulkSession:
    DOCS = [
        "<bib><book year='1999'><title>A</title></book></bib>",
        "<bib><book year='2000'><title>B</title></book></bib>",
        "<bib><book year='2001'><title>C</title></book></bib>",
    ]

    def test_store_many_matches_individual_stores(self):
        with open_scheme_store("interval") as bulk, open_scheme_store(
            "interval"
        ) as single:
            docs = [parse_document(text) for text in self.DOCS]
            bulk_ids = bulk.store_many(
                docs, names=[f"d{i}" for i in range(len(docs))]
            )
            single_ids = [
                single.store(parse_document(text), f"d{i}")
                for i, text in enumerate(self.DOCS)
            ]
            assert bulk_ids == single_ids
            for bulk_id, single_id in zip(bulk_ids, single_ids):
                assert bulk.reconstruct_xml(
                    bulk_id
                ) == single.reconstruct_xml(single_id)
            assert len(bulk.documents()) == len(self.DOCS)

    def test_bulk_session_is_atomic(self):
        with open_scheme_store("interval") as store:
            with pytest.raises(RuntimeError, match="boom"):
                with store.bulk_session() as session:
                    for text in self.DOCS:
                        session.store(parse_document(text), "doc")
                    raise RuntimeError("boom")
            assert store.documents() == []
            # The store stays usable after the rollback.
            doc_id = store.store_text(self.DOCS[0], "after")
            assert store.query_pres(doc_id, "/bib/book/title")

    def test_bulk_counters_and_single_analyze(self):
        tracer = Tracer()
        with XmlRelStore.open(scheme="interval", tracer=tracer) as store:
            docs = [parse_document(text) for text in self.DOCS]
            store.store_many(docs)
            counters = tracer.metrics.snapshot()["counters"]
            assert counters["bulk.sessions"] == 1
            assert counters["bulk.documents"] == len(self.DOCS)
            # One deferred ANALYZE for the whole session, not one per doc.
            assert len(tracer.spans_named("analyze")) == 1

    def test_nested_session_rejected(self):
        with open_scheme_store("interval") as store:
            with store.bulk_session() as session:
                with pytest.raises(StorageError, match="already active"):
                    session.__enter__()

    def test_store_outside_session_rejected(self):
        with open_scheme_store("interval") as store:
            session = store.bulk_session()
            with pytest.raises(StorageError, match="not active"):
                session.store(parse_document(self.DOCS[0]))

    def test_store_many_name_mismatch(self):
        from repro.errors import XmlRelError

        with open_scheme_store("interval") as store:
            with pytest.raises(XmlRelError, match="name"):
                store.store_many(
                    [parse_document(self.DOCS[0])], names=["a", "b"]
                )
