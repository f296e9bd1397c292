"""Publishing: stored rows → text (``write_records``), against two referees.

``reconstruct_xml`` must hand back a document that stdlib expat reads
as the very events it read from the source text — for every scheme, on
the generated documents of ``tests/test_xml_differential.py`` (every
legal spelling, comments and PIs at document level, mixed content,
``\\r`` in text and attributes).  ``query_xml`` must equal ``serialize``
of the in-memory evaluator's nodes on the result shapes the benchmark's
three reconstruction queries never draw: attribute, text, comment, PI,
empty-element, mixed-content, nested and duplicate roots — and, after
inserts, in document order.  Inlining gets the same matrix on its DTD
documents (roots that are relation rows walk the relation graph, the
others read the whole document), and universal on paths that hold no
root; both fetch exactly the rows the whole-document read carves.
"""

import pytest
from hypothesis import given, settings

from repro import XmlRelStore
from repro.errors import (
    SchemaMappingError,
    StorageError,
    UnsupportedQueryError,
)
from repro.storage.base import carve_subtrees
from repro.workloads import (
    auction_dtd,
    dblp_dtd,
    generate_auction,
    generate_dblp,
)
from repro.xml import parse_document, serialize
from repro.xpath import evaluate_nodes

from tests.conftest import SCHEMALESS_SCHEMES
from tests.test_query_translation import ID_ORDERED, UPDATED_QUERIES, updated
from tests.test_property import xml_sources
from tests.xml_oracle import expat_events, parser_outcome


def assert_round_trip(store, text):
    expected = expat_events(text)
    published = store.reconstruct_xml(store.store_text(text))
    assert expat_events(published) == expected, (store.scheme.name, text)
    assert parser_outcome(published) == expected, (store.scheme.name, text)
    return published


@given(xml_sources())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_published_documents_read_back_as_their_source(source):
    canonical = serialize(source.document)
    for name in SCHEMALESS_SCHEMES:
        with XmlRelStore.open(scheme=name) as store:
            try:
                published = assert_round_trip(store, source.text)
            except SchemaMappingError:
                assert name == "universal"  # a label repeats on a path
                continue
            assert published == canonical, name


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("workload", ["auction", "dblp"])
def test_inlining_round_trips_its_conforming_documents(workload, seed):
    if workload == "auction":
        document, dtd = generate_auction(0.01, seed=seed), auction_dtd()
    else:
        document, dtd = generate_dblp(30, seed=seed), dblp_dtd()
    with XmlRelStore.open(scheme="inlining", dtd=dtd) as store:
        assert_round_trip(store, serialize(document))


SHAPES_XML = (
    '<?top go?><r k="a&amp;b&lt;&quot;&#10;"><e/><m>a<b>bold</b>c<!--in-->'
    "<?pi d?> </m><n><o><e x=\"1\"/>t&lt;&gt;&#13;</o></n><p></p></r>"
    "<!--tail-->"
)

#: result shape → query (universal answers only what it can translate)
SHAPE_QUERIES = {
    "attribute": "/r/@k",
    "attribute-deep": "//e/@x",
    "text": "/r/m/text()",
    "text-escaped": "//o/text()",
    "comment": "//comment()",
    "processing-instruction": "//processing-instruction()",
    "empty-element": "//e",
    "empty-element-with-end-tag": "/r/p",
    "mixed-content": "/r/m",
    "nested-roots": "//n | //o | //o/e",
    "whole-root": "/r",
    "nothing": "/r/absent",
}


@pytest.mark.parametrize("scheme_name", SCHEMALESS_SCHEMES)
def test_query_xml_equals_the_evaluators_nodes(scheme_name):
    document = parse_document(SHAPES_XML)
    answered = 0
    with XmlRelStore.open(scheme=scheme_name) as store:
        doc_id = store.store_text(SHAPES_XML)
        for shape, xpath in SHAPE_QUERIES.items():
            expected = [
                serialize(node) for node in evaluate_nodes(document, xpath)
            ]
            try:
                assert store.query_xml(doc_id, xpath) == expected, shape
            except UnsupportedQueryError:
                assert scheme_name in ("universal", "xrel"), shape
                continue
            assert [
                serialize(node) for node in store.query(doc_id, xpath)
            ] == expected, shape
            answered += 1
        assert answered >= 9
        # Duplicate and out-of-order roots: one fetch, answers in the
        # order asked.
        nested = store.query_pres(doc_id, "//n | //o")
        asked = [nested[1], nested[0], nested[1]]
        by_pre = {
            node.order_key: serialize(node)
            for node in evaluate_nodes(document, "//n | //o")
        }
        assert [
            serialize(node)
            for node in store.scheme.reconstruct_subtrees(doc_id, asked)
        ] == [by_pre[pre] for pre in asked]


@pytest.mark.parametrize("scheme_name", [
    pytest.param(name, marks=() if name == "interval" else ID_ORDERED)
    for name in ("edge", "binary", "interval", "dewey")
])
def test_an_updated_document_publishes_in_document_order(scheme_name):
    """``reconstruct_xml`` follows the edited DOM on every updatable
    scheme; ``query_xml`` answers in document order only where ids are
    renumbered (EXPERIMENTS.md deviation 9)."""
    scheme, doc_id, doc = updated(scheme_name)
    try:
        assert scheme.reconstruct_xml(doc_id) == serialize(doc)
        for query in UPDATED_QUERIES:
            expected = [serialize(n) for n in evaluate_nodes(doc, query)]
            got = scheme.query_xml(doc_id, query)
            assert sorted(got) == sorted(expected), query
            assert got == expected, query
    finally:
        scheme.db.close()


def carved(scheme, doc_id, pres):
    """The whole-document read with every root carved out of it: what
    a subtree fetch must equal, row for row."""
    return carve_subtrees(scheme.fetch_records(doc_id), pres)


#: workload → (document, DTD, result shape → query).  Inlining walks its
#: relation graph down from roots that are relation rows and reads the
#: whole document for every other root.
INLINING_SHAPES = {
    "auction": (
        lambda: generate_auction(0.05, seed=3), auction_dtd, {
            "relation-rows": "//item",
            "relation-row-positional": "/site/open_auctions/open_auction[1]",
            "relation-rows-two-levels-down": "//bidder",
            "inlined-element": "//person/emailaddress",
            "attribute": "//person/@id",
            "text": "//name/text()",
            "nested-relation-roots": "//person | //person/name",
            "nested-across-levels": "//open_auction | //bidder | //date",
            "nested-inlined-root": "//person | //person/emailaddress",
            "whole-root": "/site",
            "nothing": "/site/absent",
        },
    ),
    "dblp": (
        lambda: generate_dblp(40, seed=3), dblp_dtd, {
            "relation-rows": "//article",
            "relation-row-positional": "/dblp/book[1]",
            "inlined-element": "//article/journal",
            "attribute": "//article/@key",
            "text": "//title/text()",
            "nested-relation-roots": "//article | //article/author",
            "nested-inlined-root": "//book | //book/isbn",
            "whole-root": "/dblp",
            "nothing": "/dblp/absent",
        },
    ),
}


@pytest.mark.parametrize("workload", sorted(INLINING_SHAPES))
def test_inlining_publishes_every_result_shape(workload):
    generate, dtd, shapes = INLINING_SHAPES[workload]
    document = generate()
    with XmlRelStore.open(scheme="inlining", dtd=dtd()) as store:
        doc_id = store.store_text(serialize(document))
        scheme = store.scheme
        for shape, xpath in shapes.items():
            expected = [
                serialize(node) for node in evaluate_nodes(document, xpath)
            ]
            assert bool(expected) == (shape != "nothing"), shape
            pres = store.query_pres(doc_id, xpath)
            assert store.query_xml(doc_id, xpath) == expected, shape
            for nodes in (
                store.query(doc_id, xpath),
                scheme.reconstruct_subtrees(doc_id, pres),
            ):
                assert [serialize(node) for node in nodes] == expected, shape
            assert scheme.fetch_records_many(doc_id, pres) == carved(
                scheme, doc_id, pres
            ), shape
        # Duplicate and out-of-order roots, nested ones among them.
        nested = shapes["nested-relation-roots"]
        pres = store.query_pres(doc_id, nested)
        by_pre = {
            node.order_key: serialize(node)
            for node in evaluate_nodes(document, nested)
        }
        asked = [pres[1], pres[0], pres[1], pres[-1]]
        assert [
            serialize(node)
            for node in scheme.reconstruct_subtrees(doc_id, asked)
        ] == [by_pre[pre] for pre in asked]
        assert scheme.fetch_records_many(doc_id, asked) == carved(
            scheme, doc_id, asked
        )
        # No roots; a pre with no node beside a relation row's.
        assert scheme.fetch_records_many(doc_id, []) == []
        assert scheme.reconstruct_subtrees(doc_id, []) == []
        missing = [pres[0], 999_999]
        assert scheme.fetch_records_many(doc_id, missing) == carved(
            scheme, doc_id, missing
        )
        with pytest.raises(
            StorageError,
            match=f"^no stored node with pre=999999 in document {doc_id}$",
        ):
            scheme.reconstruct_subtrees(doc_id, missing)


@pytest.mark.parametrize("scheme_name", ["universal", "inlining"])
def test_reconstruction_queries_fetch_what_the_carve_gives(scheme_name):
    # R1–R3 of the benchmark's reconstruction set (universal cannot
    # translate R3's position).
    document = generate_auction(0.05, seed=5)
    kwargs = {"dtd": auction_dtd()} if scheme_name == "inlining" else {}
    with XmlRelStore.open(scheme=scheme_name, **kwargs) as store:
        doc_id = store.store_text(serialize(document))
        scheme = store.scheme
        for xpath in (
            "/site/people/person",
            "//item",
            "/site/open_auctions/open_auction[1]",
        ):
            try:
                pres = store.query_pres(doc_id, xpath)
            except UnsupportedQueryError:
                assert scheme_name == "universal", xpath
                continue
            assert pres, xpath
            assert scheme.fetch_records_many(doc_id, pres) == carved(
                scheme, doc_id, pres
            ), xpath


#: One path per leaf: /r/a/b/#text runs alone below <a>, and /r/c/d and
#: /r/c/@k hold no root of the queries under /r/a.
UNIVERSAL_XML = '<r><a><b>x</b></a><c k="v"><d/></c><a><b>y</b></a></r>'


def test_universal_publishes_only_the_chains_through_a_root():
    document = parse_document(UNIVERSAL_XML)
    with XmlRelStore.open(scheme="universal") as store:
        doc_id = store.store_text(UNIVERSAL_XML)
        scheme = store.scheme
        for xpath in (
            "/r/a/b",          # a root on a path with no sibling path
            "/r/a",            # paths under /r/c hold no root
            "/r/a/b/text()",
            "/r/c/@k",
            "/r/a | /r/a/b",   # nested roots
            "/r",
        ):
            expected = [
                serialize(node) for node in evaluate_nodes(document, xpath)
            ]
            assert store.query_xml(doc_id, xpath) == expected, xpath
            pres = store.query_pres(doc_id, xpath)
            assert scheme.fetch_records_many(doc_id, pres) == carved(
                scheme, doc_id, pres
            ), xpath


@pytest.mark.parametrize("corrupt_sql, message", [
    # the NULL id lies on /r/c/d, a path that holds no root of /r/a
    ("UPDATE universal SET {c_id} = NULL WHERE {d_id} IS NOT NULL",
     "missing id for label 'c'"),
    ("DELETE FROM universal_labels WHERE label = 'd'",
     "uses label 'd' with no column assignment"),
    ("UPDATE universal SET path_id = 4242 WHERE {d_id} IS NOT NULL",
     "path_id 4242 absent from universal_paths"),
])
def test_universal_checks_every_path_it_reads(corrupt_sql, message):
    with XmlRelStore.open(scheme="universal") as store:
        doc_id = store.store_text(UNIVERSAL_XML)
        scheme = store.scheme
        pres = store.query_pres(doc_id, "/r/a")
        columns = {
            f"{label}_id": scheme.column_triple(index)[1]
            for label, index in scheme.label_columns().items()
        }
        store.db.execute(corrupt_sql.format(**columns))
        for fetch in (
            lambda: scheme.fetch_records(doc_id),
            lambda: scheme.fetch_records_many(doc_id, pres),
        ):
            with pytest.raises(StorageError, match=message):
                fetch()
