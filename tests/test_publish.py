"""Publishing: stored rows → text (``write_records``), against two referees.

``reconstruct_xml`` must hand back a document that stdlib expat reads
as the very events it read from the source text — for every scheme, on
the generated documents of ``tests/test_xml_differential.py`` (every
legal spelling, comments and PIs at document level, mixed content,
``\\r`` in text and attributes).  ``query_xml`` must equal ``serialize``
of the in-memory evaluator's nodes on the result shapes the benchmark's
three reconstruction queries never draw: attribute, text, comment, PI,
empty-element, mixed-content, nested and duplicate roots — and, after
inserts, in document order.
"""

import pytest
from hypothesis import given, settings

from repro import XmlRelStore
from repro.errors import SchemaMappingError, UnsupportedQueryError
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
