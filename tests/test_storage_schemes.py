"""Cross-scheme storage tests: every mapping must shred, reconstruct,
and delete losslessly.  Parametrized over all seven schemes."""

import pytest

from repro.core.registry import available_schemes
from repro.errors import DocumentNotFoundError, StorageError
from repro.relational.database import Database
from repro.xml import parse_document
from repro.xml.dom import deep_equal
from repro.xml.parser import ParseOptions

from tests.conftest import BIB_DTD_XML, make_scheme

ALL_SCHEMES = available_schemes()


def open_scheme(name, db):
    doc = parse_document(BIB_DTD_XML, ParseOptions(keep_whitespace=False))
    return make_scheme(name, db, dtd=doc.dtd), doc


@pytest.fixture(params=ALL_SCHEMES)
def scheme_and_doc(request):
    with Database() as db:
        yield open_scheme(request.param, db)


class TestRoundtrip:
    def test_store_reconstruct_roundtrip(self, scheme_and_doc):
        scheme, doc = scheme_and_doc
        result = scheme.store(doc, "bib")
        rebuilt = scheme.reconstruct(result.doc_id)
        assert deep_equal(doc, rebuilt)

    def test_node_count_recorded(self, scheme_and_doc):
        scheme, doc = scheme_and_doc
        result = scheme.store(doc, "bib")
        record = scheme.catalog.get(result.doc_id)
        assert record.node_count == result.node_count
        assert record.root_tag == "bib"
        assert record.scheme == scheme.name

    def test_subtree_reconstruction(self, scheme_and_doc):
        scheme, doc = scheme_and_doc
        result = scheme.store(doc, "bib")
        first_book = doc.root_element.find("book")
        node = scheme.reconstruct_subtree(
            result.doc_id, first_book.order_key
        )
        assert deep_equal(first_book, node)

    def test_attribute_subtree(self, scheme_and_doc):
        scheme, doc = scheme_and_doc
        result = scheme.store(doc, "bib")
        attr = doc.root_element.find("book").get_attribute_node("year")
        node = scheme.reconstruct_subtree(result.doc_id, attr.order_key)
        assert node.name == "year"
        assert node.value == "1994"

    def test_missing_subtree_rejected(self, scheme_and_doc):
        scheme, doc = scheme_and_doc
        result = scheme.store(doc, "bib")
        with pytest.raises(StorageError):
            scheme.reconstruct_subtree(result.doc_id, 10_000)

    def test_multiple_documents_isolated(self, scheme_and_doc):
        scheme, doc = scheme_and_doc
        first = scheme.store(doc, "one")
        second_doc = parse_document(
            BIB_DTD_XML, ParseOptions(keep_whitespace=False)
        )
        second = scheme.store(second_doc, "two")
        assert first.doc_id != second.doc_id
        assert deep_equal(doc, scheme.reconstruct(first.doc_id))
        assert deep_equal(second_doc, scheme.reconstruct(second.doc_id))

    def test_delete_document(self, scheme_and_doc):
        scheme, doc = scheme_and_doc
        kept = scheme.store(doc, "keep")
        gone_doc = parse_document(
            BIB_DTD_XML, ParseOptions(keep_whitespace=False)
        )
        gone = scheme.store(gone_doc, "gone")
        scheme.delete_document(gone.doc_id)
        with pytest.raises(DocumentNotFoundError):
            scheme.reconstruct(gone.doc_id)
        # The kept document is untouched.
        assert deep_equal(doc, scheme.reconstruct(kept.doc_id))

    def test_delete_unknown_rejected(self, scheme_and_doc):
        scheme, __ = scheme_and_doc
        with pytest.raises(DocumentNotFoundError):
            scheme.delete_document(123)

    def test_row_accounting(self, scheme_and_doc):
        scheme, doc = scheme_and_doc
        result = scheme.store(doc, "bib")
        assert result.total_rows > 0
        assert all(count >= 0 for count in result.row_counts.values())

    def test_storage_bytes_positive(self, scheme_and_doc):
        scheme, doc = scheme_and_doc
        scheme.store(doc, "bib")
        assert scheme.storage_bytes() > 0

    def test_empty_document_rejected(self, scheme_and_doc):
        scheme, __ = scheme_and_doc
        from repro.xml.dom import Document

        with pytest.raises(StorageError, match="empty document"):
            scheme.store(Document(), "empty")


@pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
def test_whitespace_preserving_roundtrip(scheme_name):
    """Schemes that accept schema-less input must keep whitespace text.

    The inlining scheme intentionally drops whitespace-only text between
    element-content children (data-centric scope), so it is compared
    whitespace-insensitively.
    """
    with Database() as db:
        doc = parse_document(BIB_DTD_XML)  # whitespace kept
        scheme = make_scheme(scheme_name, db, dtd=doc.dtd)
        result = scheme.store(doc, "bib")
        rebuilt = scheme.reconstruct(result.doc_id)
        ignore_ws = scheme_name == "inlining"
        assert deep_equal(doc, rebuilt, ignore_ws_text=ignore_ws)


@pytest.mark.parametrize(
    "scheme_name",
    [n for n in ALL_SCHEMES if n not in ("inlining", "universal")],
)
def test_comments_and_pis_roundtrip(scheme_name):
    """Schema-less schemes must preserve comments and PIs."""
    src = "<r><!-- note --><a/><?target data?>text</r>"
    with Database() as db:
        doc = parse_document(src)
        scheme = make_scheme(scheme_name, db)
        result = scheme.store(doc, "doc")
        assert deep_equal(doc, scheme.reconstruct(result.doc_id))


def test_mixed_content_roundtrip_edge_like():
    """Mixed content (text interleaved with elements) survives the
    schema-less mappings."""
    src = "<p>one <em>two</em> three <b>four</b> five</p>"
    for scheme_name in ("edge", "binary", "interval", "dewey", "xrel"):
        with Database() as db:
            doc = parse_document(src)
            scheme = make_scheme(scheme_name, db)
            result = scheme.store(doc, "doc")
            assert deep_equal(doc, scheme.reconstruct(result.doc_id)), (
                scheme_name
            )


def test_deep_document_roundtrip():
    """A 60-level chain exercises numbering and reconstruction depth."""
    src = "".join(f"<n{i}>" for i in range(60)) + "x" + "".join(
        f"</n{i}>" for i in reversed(range(60))
    )
    for scheme_name in ("edge", "interval", "dewey"):
        with Database() as db:
            doc = parse_document(src)
            scheme = make_scheme(scheme_name, db)
            result = scheme.store(doc, "deep")
            assert deep_equal(doc, scheme.reconstruct(result.doc_id))


def test_wide_document_roundtrip():
    """A 500-sibling fanout exercises ordinal handling."""
    src = "<r>" + "".join(f"<c i='{i}'/>" for i in range(500)) + "</r>"
    for scheme_name in ("binary", "interval", "dewey", "xrel"):
        with Database() as db:
            doc = parse_document(src)
            scheme = make_scheme(scheme_name, db)
            result = scheme.store(doc, "wide")
            rebuilt = scheme.reconstruct(result.doc_id)
            assert deep_equal(doc, rebuilt), scheme_name
