"""Tests for subtree insertion/deletion and the per-scheme update costs."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.registry import create_scheme
from repro.errors import UpdateError
from repro.relational.database import Database
from repro.serve import ShardedStore
from repro.updates import UpdateStats, delete_subtree, insert_subtree
from repro.xml import parse_document, parse_fragment, serialize
from repro.xml.dom import deep_equal
from repro.xpath import evaluate_nodes

from tests.numbering_oracle import number_document
from tests.test_property import documents, elements

UPDATABLE = ("edge", "binary", "interval", "dewey")

SRC = (
    "<bib>"
    "<book year='1994'><title>One</title><price>10</price></book>"
    "<book year='2000'><title>Two</title><price>20</price></book>"
    "<book year='2002'><title>Three</title><price>30</price></book>"
    "</bib>"
)

NEW_BOOK = "<book year='1999'><title>New</title><price>15</price></book>"


def expected_after(operation):
    """Apply *operation* to a fresh DOM and return the mutated document."""
    doc = parse_document(SRC)
    operation(doc)
    return doc


@pytest.fixture(params=UPDATABLE)
def populated(request):
    with Database() as db:
        scheme = create_scheme(request.param, db)
        doc = parse_document(SRC)
        result = scheme.store(doc, "bib")
        yield scheme, result.doc_id, doc


class TestInsert:
    def test_append_child(self, populated):
        scheme, doc_id, doc = populated
        root_pre = doc.root_element.order_key
        stats = insert_subtree(
            scheme, doc_id, root_pre, parse_fragment(NEW_BOOK), index=3
        )
        assert stats.rows_inserted == 6  # book + @year + 2 leaves + 2 texts

        def mutate(d):
            d.root_element.append_child(parse_fragment(NEW_BOOK))

        assert deep_equal(scheme.reconstruct(doc_id), expected_after(mutate))

    def test_insert_in_middle(self, populated):
        scheme, doc_id, doc = populated
        root_pre = doc.root_element.order_key
        insert_subtree(
            scheme, doc_id, root_pre, parse_fragment(NEW_BOOK), index=1
        )

        def mutate(d):
            d.root_element.insert_child(1, parse_fragment(NEW_BOOK))

        assert deep_equal(scheme.reconstruct(doc_id), expected_after(mutate))

    def test_insert_at_front(self, populated):
        scheme, doc_id, doc = populated
        root_pre = doc.root_element.order_key
        insert_subtree(
            scheme, doc_id, root_pre, parse_fragment(NEW_BOOK), index=0
        )

        def mutate(d):
            d.root_element.insert_child(0, parse_fragment(NEW_BOOK))

        assert deep_equal(scheme.reconstruct(doc_id), expected_after(mutate))

    def test_inserted_data_queryable(self, populated):
        scheme, doc_id, doc = populated
        root_pre = doc.root_element.order_key
        insert_subtree(
            scheme, doc_id, root_pre, parse_fragment(NEW_BOOK), index=1
        )
        nodes = scheme.query_nodes(
            doc_id, "/bib/book[@year = '1999']/title"
        )
        assert [n.string_value for n in nodes] == ["New"]
        # Numeric predicates see the new leaf values too.
        pres = scheme.query_pres(doc_id, "/bib/book[price = 15]/@year")
        assert len(pres) == 1

    def test_insert_under_leaf_invalidates_content(self, populated):
        scheme, doc_id, doc = populated
        title_pre = evaluate_nodes(doc, "/bib/book[1]/title")[0].order_key
        insert_subtree(
            scheme, doc_id, title_pre, parse_fragment("<sub>x</sub>"),
            index=1,
        )
        # 'One' is no longer the *text-only* content of that title.
        assert scheme.query_pres(doc_id, "/bib/book[title = 'One']") == []

    def test_bad_index_rejected(self, populated):
        scheme, doc_id, doc = populated
        root_pre = doc.root_element.order_key
        with pytest.raises(UpdateError, match="out of range"):
            insert_subtree(
                scheme, doc_id, root_pre, parse_fragment("<x/>"), index=9
            )

    def test_attached_fragment_rejected(self, populated):
        scheme, doc_id, doc = populated
        attached = doc.root_element.find("book")
        with pytest.raises(UpdateError, match="detached"):
            insert_subtree(scheme, doc_id, 1, attached)

    def test_node_count_updated(self, populated):
        scheme, doc_id, doc = populated
        before = scheme.catalog.get(doc_id).node_count
        insert_subtree(
            scheme, doc_id, doc.root_element.order_key,
            parse_fragment("<x/>"), index=0,
        )
        assert scheme.catalog.get(doc_id).node_count == before + 1


#: Parents no subtree can hang under: a node that is not stored, a text
#: node, an attribute node.
BAD_PARENTS = {
    "missing": (None, "no node"),
    "text": ("/bib/book[1]/title/text()", "not an element"),
    "attribute": ("/bib/book[1]/@year", "not an element"),
}


def bad_parent_pre(doc, which):
    xpath = BAD_PARENTS[which][0]
    return 9999 if xpath is None else evaluate_nodes(doc, xpath)[0].order_key


@pytest.mark.parametrize("which", BAD_PARENTS)
class TestParentValidation:
    """The parent is checked — it exists and is an element — before any
    row is written: a refused insert leaves no trace."""

    def test_refused_before_any_write(self, populated, which):
        scheme, doc_id, doc = populated
        before = scheme.reconstruct_xml(doc_id)
        count = scheme.catalog.get(doc_id).node_count
        with pytest.raises(UpdateError, match=BAD_PARENTS[which][1]):
            insert_subtree(
                scheme, doc_id, bad_parent_pre(doc, which),
                parse_fragment(NEW_BOOK),
            )
        assert scheme.verify_document(doc_id).ok
        assert scheme.reconstruct_xml(doc_id) == before
        assert scheme.catalog.get(doc_id).node_count == count

    @pytest.mark.parametrize("scheme_name", UPDATABLE)
    def test_refused_through_the_sharded_store(
        self, tmp_path, scheme_name, which
    ):
        doc = parse_document(SRC)
        with ShardedStore.open(
            str(tmp_path), scheme=scheme_name, shards=1
        ) as store:
            doc_id = store.store(doc, "bib")
            before = store.reconstruct_xml(doc_id)
            store.query_pres(doc_id, "//title")  # something cached
            cache = store.pools[0].result_cache
            cached = cache.stats()
            assert cached["entries"] == 1
            with pytest.raises(UpdateError, match=BAD_PARENTS[which][1]):
                store.insert_subtree(
                    doc_id, bad_parent_pre(doc, which),
                    parse_fragment(NEW_BOOK),
                )
            # No write happened, so nothing was invalidated.
            assert cache.stats() == cached
            assert store.verify(doc_id).ok
            assert store.reconstruct_xml(doc_id) == before
            local = store.resolve(doc_id).local_doc_id
            catalog = store.writers[0].scheme.catalog
            assert catalog.get(local).node_count == 19


class TestDelete:
    def test_delete_middle_child(self, populated):
        scheme, doc_id, doc = populated
        second = evaluate_nodes(doc, "/bib/book[2]")[0].order_key
        stats = delete_subtree(scheme, doc_id, second)
        assert stats.rows_deleted == 6

        def mutate(d):
            book = d.root_element.find_all("book")[1]
            d.root_element.remove_child(book)

        assert deep_equal(scheme.reconstruct(doc_id), expected_after(mutate))

    def test_deleted_data_not_queryable(self, populated):
        scheme, doc_id, doc = populated
        second = evaluate_nodes(doc, "/bib/book[2]")[0].order_key
        delete_subtree(scheme, doc_id, second)
        assert scheme.query_pres(doc_id, "/bib/book[@year = '2000']") == []
        assert len(scheme.query_pres(doc_id, "//book")) == 2

    def test_delete_missing_node_rejected(self, populated):
        scheme, doc_id, __ = populated
        with pytest.raises(UpdateError, match="no node"):
            delete_subtree(scheme, doc_id, 9999)

    def test_insert_then_delete_roundtrip(self, populated):
        scheme, doc_id, doc = populated
        root_pre = doc.root_element.order_key
        insert_subtree(
            scheme, doc_id, root_pre, parse_fragment(NEW_BOOK), index=1
        )
        new_pre = scheme.query_pres(doc_id, "/bib/book[@year = '1999']")[0]
        delete_subtree(scheme, doc_id, new_pre)
        assert deep_equal(scheme.reconstruct(doc_id), parse_document(SRC))


class TestUpdateCosts:
    """The published asymmetry: interval pays globally, edge/dewey locally."""

    @staticmethod
    def build(scheme_name):
        db = Database()
        scheme = create_scheme(scheme_name, db)
        doc = parse_document(
            "<r>" + "<s><t>x</t></s>" * 50 + "</r>"
        )
        result = scheme.store(doc, "wide")
        return db, scheme, result.doc_id, doc

    def front_insert_cost(self, scheme_name):
        db, scheme, doc_id, doc = self.build(scheme_name)
        try:
            stats = insert_subtree(
                scheme, doc_id, doc.root_element.order_key,
                parse_fragment("<s><t>new</t></s>"), index=0,
            )
            return stats.rows_updated
        finally:
            db.close()

    def test_interval_renumbers_globally(self):
        # Everything after the insertion point shifts: ~150 nodes, twice
        # (pre and parent_pre), plus ancestors and sibling ordinals.
        assert self.front_insert_cost("interval") > 150

    def test_edge_touches_siblings_only(self):
        assert self.front_insert_cost("edge") == 50

    def test_dewey_relabels_sibling_subtrees(self):
        # 50 following siblings x 3 nodes each.
        assert self.front_insert_cost("dewey") == 150

    def test_ordering_matches_published_story(self):
        edge_cost = self.front_insert_cost("edge")
        dewey_cost = self.front_insert_cost("dewey")
        interval_cost = self.front_insert_cost("interval")
        assert edge_cost < dewey_cost < interval_cost


class TestOneDocumentOneTransaction:
    """An update reads and writes only its own document, inside one
    transaction: no statement scans another document's rows (the old
    ``SELECT MAX(pre) FROM <table>`` did) and nothing nests."""

    CONTROL = ("BEGIN", "COMMIT", "ROLLBACK", "SAVEPOINT", "RELEASE")

    @staticmethod
    def traced(scheme, operation):
        statements = []
        scheme.db._conn.set_trace_callback(statements.append)
        try:
            operation()
        finally:
            scheme.db._conn.set_trace_callback(None)
        return [" ".join(statement.split()) for statement in statements]

    @pytest.mark.parametrize("scheme_name", UPDATABLE)
    def test_statements_are_scoped_to_the_document(self, scheme_name):
        with Database() as db:
            scheme = create_scheme(scheme_name, db)
            scheme.store(parse_document(SRC), "other")
            doc = parse_document(SRC)
            doc_id = scheme.store(doc, "bib").doc_id
            inserted = self.traced(scheme, lambda: insert_subtree(
                scheme, doc_id, doc.root_element.order_key,
                # <novel> is a label binary has no partition for yet.
                parse_fragment("<novel year='1999'>x<!--c--></novel>"),
                index=1,
            ))
            victim = scheme.query_pres(doc_id, "/bib/novel")[0]
            deleted = self.traced(
                scheme, lambda: delete_subtree(scheme, doc_id, victim)
            )
            node_tables = [
                name for name in scheme.table_names() + ["binary_edges"]
                if name != "binary_labels"
            ]
            names_node_table = re.compile(
                r"\b(%s)\b" % "|".join(map(re.escape, node_tables))
            )
            for statements in (inserted, deleted):
                control = [
                    s for s in statements if s.startswith(self.CONTROL)
                ]
                assert control == ["BEGIN", "COMMIT"], control
                scoped = [
                    s for s in statements
                    if names_node_table.search(s)
                    # Rows carry their doc_id as a column; DDL (binary's
                    # new partition and its view) has no rows to scope.
                    and not s.startswith(("INSERT INTO", "CREATE", "DROP"))
                ]
                assert scoped
                for statement in scoped:
                    # The trace shows bound values: every predicate on
                    # doc_id names this document.
                    docs = re.findall(r"doc_id = (\S+)", statement)
                    assert docs and set(docs) == {str(doc_id)}, statement
            assert scheme.verify_document(doc_id).ok
            assert scheme.reconstruct_xml(doc_id) == SRC.replace("'", '"')

    def test_nested_update_is_one_savepoint(self):
        with Database() as db:
            scheme = create_scheme("interval", db)
            doc_id = scheme.store(parse_document(SRC), "bib").doc_id

            def nested():
                with db.transaction():
                    insert_subtree(
                        scheme, doc_id, 1, parse_fragment(NEW_BOOK)
                    )

            control = [
                s.split()[0] for s in self.traced(scheme, nested)
                if s.startswith(self.CONTROL)
            ]
            assert control == ["BEGIN", "SAVEPOINT", "RELEASE", "COMMIT"]


UPDATE_ROWS = {
    "interval": "SELECT * FROM accel WHERE doc_id = ? ORDER BY pre",
    # Every column but pre: fresh ids are not document order.
    "dewey": (
        "SELECT label, parent_label, depth, kind, name, value, content, "
        "ordinal FROM dewey WHERE doc_id = ? ORDER BY label"
    ),
}
#: A delete closes no ordinal gap (it updates no sibling — the cost
#: E7 reports), so after insert + delete the following siblings keep
#: their bumped ordinals and, under dewey, labels; everything else is
#: the original store's.
UNORDERED_ROWS = {
    "interval": (
        "SELECT pre, size, level, kind, name, value, content, parent_pre "
        "FROM accel WHERE doc_id = ? ORDER BY pre"
    ),
    "dewey": (
        "SELECT depth, kind, name, value, content FROM dewey "
        "WHERE doc_id = ? ORDER BY label"
    ),
}


def stored(scheme_name, document):
    db = Database()
    scheme = create_scheme(scheme_name, db)
    return scheme, scheme.store(document, "generated").doc_id


def table_rows(scheme, doc_id, queries):
    sql = queries.get(scheme.name)
    return scheme.db.query(sql, (doc_id,)) if sql else None


@given(documents(), elements(depth=2), st.data())
@settings(max_examples=60, derandomize=True, deadline=None)
def test_update_leaves_the_tables_a_fresh_store_would(
    document, fragment, data
):
    """Attributes, comments, PIs, empty and mixed-content elements, any
    parent and index: after ``insert_subtree`` the tables hold what
    storing the edited document writes (interval row for row, dewey
    row for row but ``pre``, edge/binary through their published text
    and audit), and ``delete_subtree`` of the new subtree brings the
    original back."""
    root = document.root_element
    parent = data.draw(st.sampled_from(
        [root] + evaluate_nodes(root, "descendant::*")
    ))
    index = data.draw(st.integers(0, len(parent.children)))
    document.assign_order()
    original_text = serialize(document)
    updated = {}
    for name in UPDATABLE:
        scheme, doc_id = stored(name, document)
        count = scheme.catalog.get(doc_id).node_count
        stats = insert_subtree(
            scheme, doc_id, parent.order_key, fragment, index
        )
        updated[name] = (scheme, doc_id, count, stats.rows_inserted)
    parent.insert_child(index, fragment)
    document.assign_order()
    edited_text = serialize(document)
    try:
        for name, (scheme, doc_id, count, size) in updated.items():
            fresh, fresh_id = stored(name, document)
            with fresh.db:
                assert table_rows(scheme, doc_id, UPDATE_ROWS) == table_rows(
                    fresh, fresh_id, UPDATE_ROWS
                ), name
                assert (
                    scheme.catalog.get(doc_id).node_count
                    == fresh.catalog.get(fresh_id).node_count
                    == count + size
                )
            assert scheme.reconstruct_xml(doc_id) == edited_text, name
            assert scheme.verify_document(doc_id).ok, name
            # Interval renumbers into document order; the others hand
            # out ids past the document's largest, which a fresh store
            # makes its node count.
            new_root = (
                fragment.order_key if name == "interval" else count + 1
            )
            stats = delete_subtree(scheme, doc_id, new_root)
            assert stats.rows_deleted == size
            assert scheme.reconstruct_xml(doc_id) == original_text, name
            assert scheme.verify_document(doc_id).ok, name
            assert scheme.catalog.get(doc_id).node_count == count
        parent.remove_child(fragment)
        for name, (scheme, doc_id, __, __) in updated.items():
            before, before_id = stored(name, document)
            with before.db:
                assert table_rows(
                    scheme, doc_id, UNORDERED_ROWS
                ) == table_rows(before, before_id, UNORDERED_ROWS), name
    finally:
        for scheme, *__ in updated.values():
            scheme.db.close()


class TestUnsupportedSchemes:
    @pytest.mark.parametrize("scheme_name", ["xrel", "universal"])
    def test_update_rejected(self, scheme_name):
        with Database() as db:
            scheme = create_scheme(scheme_name, db)
            result = scheme.store(parse_document(SRC), "bib")
            with pytest.raises(UpdateError, match="does not implement"):
                insert_subtree(
                    scheme, result.doc_id, 1, parse_fragment("<x/>")
                )
            with pytest.raises(UpdateError, match="does not implement"):
                delete_subtree(scheme, result.doc_id, 1)


def test_update_stats_accounting():
    stats = UpdateStats(rows_inserted=3, rows_updated=2, rows_deleted=1)
    assert stats.rows_touched == 6


class TestDeweyOrdinalWidths:
    """Dewey components grow a character at ordinals 10 and 100: an
    inserted root and the following siblings it pushes up must take the
    wider labels, and their subtrees with them."""

    FRAGMENT = "<c n='new'><v>new</v><w/></c>"
    XPATHS = (
        "/r/c/v", "/r/c[10]", "/r/c[100]/v", "/r/c[last()]", "//w",
        "/r/c[@n='new']/following-sibling::c/v",
        "/r/c[@n='new']/preceding-sibling::c",
        "//v[. = 'new']/ancestor::c",
    )

    def check(self, scheme, doc_id, document):
        document.assign_order()
        assert scheme.reconstruct_xml(doc_id) == serialize(document)
        # Answers as multisets: after an insert, results come in node
        # id order, which is no longer document order.
        for xpath in self.XPATHS:
            assert sorted(scheme.query_xml(doc_id, xpath)) == sorted(
                serialize(n) for n in evaluate_nodes(document, xpath)
            ), xpath
        assert scheme.verify_document(doc_id).ok
        # Sorting the labels as strings gives document order.
        rows = sorted(scheme.db.query(
            "SELECT label, depth, kind, name, value FROM dewey "
            "WHERE doc_id = ?", (doc_id,),
        ))
        expected = number_document(document)
        assert [row[1:] for row in rows] == [
            (r.level, r.kind, r.name, r.value) for r in expected
        ]
        return [row[0] for row in rows], [r.dewey for r in expected]

    @pytest.mark.parametrize("count, index", [
        (9, 8), (9, 9), (8, 0), (99, 98), (99, 99), (98, 0),
    ])
    def test_labels_grow_across_digit_boundaries(self, count, index):
        source = "<r a='x'>" + "".join(
            f"<c n='{i}'><v>{i}</v></c>" for i in range(1, count + 1)
        ) + "</r>"
        document = parse_document(source)
        with Database() as db:
            scheme = create_scheme("dewey", db)
            doc_id = scheme.store(document, "wide").doc_id
            insert_subtree(
                scheme, doc_id, document.root_element.order_key,
                parse_fragment(self.FRAGMENT), index,
            )
            document.root_element.insert_child(
                index, parse_fragment(self.FRAGMENT)
            )
            labels, fresh = self.check(scheme, doc_id, document)
            # Inserts alone leave the labels a fresh store writes.
            assert labels == fresh
            for which in (f"{count}", "new"):
                xpath = f"/r/c[@n='{which}']"
                (pre,) = scheme.query_pres(doc_id, xpath)
                delete_subtree(scheme, doc_id, pre)
                (node,) = evaluate_nodes(document, xpath)
                document.root_element.remove_child(node)
                self.check(scheme, doc_id, document)
