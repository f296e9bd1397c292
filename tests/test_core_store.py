"""Tests for the XmlRelStore facade and the multi-scheme comparator."""

import pytest

from repro.core.compare import compare_schemes
from repro.core.registry import available_schemes, create_scheme, scheme_class
from repro.core.store import XmlRelStore, open_store
from repro.errors import DocumentNotFoundError, StorageError, XmlRelError
from repro.relational.database import Database
from repro.serve import ShardedStore
from repro.xml import parse_document
from repro.xml.dom import deep_equal

from tests.conftest import BIB_XML


class TestRegistry:
    def test_all_schemes_registered(self):
        assert set(available_schemes()) == {
            "edge", "binary", "universal", "interval", "dewey", "xrel",
            "inlining",
        }

    def test_unknown_scheme_rejected(self):
        with pytest.raises(XmlRelError, match="unknown scheme"):
            scheme_class("btree")

    def test_create_scheme(self):
        with Database() as db:
            scheme = create_scheme("edge", db)
            assert scheme.name == "edge"


class TestStoreFacade:
    @pytest.fixture()
    def store(self):
        with XmlRelStore.open(scheme="interval") as opened:
            yield opened

    def test_store_and_query_xml(self, store):
        doc_id = store.store_text(BIB_XML, "bib")
        fragments = store.query_xml(doc_id, "/bib/book[@year = '1994']/title")
        assert fragments == ["<title>TCP/IP Illustrated</title>"]

    def test_query_returns_nodes(self, store):
        doc_id = store.store_text(BIB_XML)
        nodes = store.query(doc_id, "//last")
        assert len(nodes) == 5

    def test_query_pres_sorted(self, store):
        doc_id = store.store_text(BIB_XML)
        pres = store.query_pres(doc_id, "//author")
        assert pres == sorted(pres)

    def test_reconstruct_roundtrip(self, store):
        document = parse_document(BIB_XML)
        doc_id = store.store(document, "bib")
        assert deep_equal(document, store.reconstruct(doc_id))
        assert store.reconstruct_xml(doc_id).startswith("<bib>")

    def test_documents_catalog(self, store):
        store.store_text(BIB_XML, "one")
        store.store_text(BIB_XML, "two")
        assert [r.name for r in store.documents()] == ["one", "two"]

    def test_delete(self, store):
        doc_id = store.store_text(BIB_XML, "gone")
        store.delete(doc_id)
        with pytest.raises(DocumentNotFoundError):
            store.reconstruct(doc_id)

    def test_sql_inspection(self, store):
        doc_id = store.store_text(BIB_XML)
        sql, params = store.sql_for(doc_id, "/bib/book/title")
        assert "accel" in sql
        assert doc_id in params

    def test_store_file(self, store, tmp_path):
        path = tmp_path / "bib.xml"
        path.write_text(BIB_XML, encoding="utf-8")
        doc_id = store.store_file(str(path))
        assert store.documents()[0].name == str(path)
        assert len(store.query_pres(doc_id, "//book")) == 2

    def test_store_file_missing_path(self, store, tmp_path):
        missing = str(tmp_path / "no-such.xml")
        with pytest.raises(XmlRelError, match="cannot read XML file"):
            store.store_file(missing)

    def test_store_file_bad_encoding(self, store, tmp_path):
        path = tmp_path / "latin.xml"
        path.write_bytes("<a>café</a>".encode("latin-1"))
        with pytest.raises(XmlRelError, match="cannot read XML file"):
            store.store_file(str(path))

    def test_keep_whitespace_flag(self, store):
        lean = store.store_text(BIB_XML, keep_whitespace=False)
        fat = store.store_text(BIB_XML, keep_whitespace=True)
        records = {r.doc_id: r.node_count for r in store.documents()}
        assert records[lean] < records[fat]

    def test_storage_accounting(self, store):
        store.store_text(BIB_XML)
        assert store.storage_bytes() > 0
        assert "accel" in store.table_names()

    def test_file_backed_store(self, tmp_path):
        path = str(tmp_path / "xml.db")
        with XmlRelStore.open(path, scheme="dewey") as store:
            doc_id = store.store_text(BIB_XML, "bib")
        # Reopen: the data survived.
        with XmlRelStore.open(path, scheme="dewey") as store:
            assert [r.name for r in store.documents()] == ["bib"]
            assert len(store.query_pres(doc_id, "//book")) == 2

    def test_open_store_alias(self):
        with open_store(scheme="edge") as store:
            assert store.scheme.name == "edge"
        with pytest.raises(XmlRelError, match="path must be a string"):
            open_store(123)


class TestOpenDoors:
    """One path rule at every door: ``str`` or ``os.PathLike`` opens,
    anything else is an :class:`XmlRelError`."""

    def test_embedded_door_rejects_a_non_path(self):
        with pytest.raises(XmlRelError, match="path must be a string"):
            XmlRelStore.open(123)

    def test_sharded_door_rejects_a_non_path(self):
        with pytest.raises(XmlRelError, match="path must be a string"):
            ShardedStore.open(123)

    def test_embedded_door_rejects_an_unknown_keyword_before_writing(
        self, tmp_path
    ):
        path = tmp_path / "xml.db"
        with pytest.raises(StorageError, match="no keyword.*bogus"):
            XmlRelStore.open(path, scheme="edge", bogus=1)
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(StorageError, match="strategy"):
            XmlRelStore.open(path, scheme="interval", strategy="shared")
        with XmlRelStore.open(path, scheme="edge") as store:
            assert store.scheme.name == "edge"

    def test_sharded_door_rejects_an_unknown_keyword_before_writing(
        self, tmp_path
    ):
        directory = tmp_path / "store.d"
        for keyword in ("bogus", "replicas", "read_from"):
            with pytest.raises(StorageError, match=f"no keyword.*{keyword}"):
                ShardedStore.open(directory, shards=2, **{keyword: 1})
            assert list(tmp_path.iterdir()) == []
        # Nothing was pinned, so the corrected open is a first open.
        with ShardedStore.open(directory, shards=3) as store:
            assert store.shard_count == 3

    def test_open_store_accepts_a_path(self, tmp_path):
        with open_store(tmp_path / "xml.db", scheme="edge") as store:
            doc_id = store.store_text(BIB_XML, "bib")
            assert len(store.query_pres(doc_id, "//book")) == 2
        assert (tmp_path / "xml.db").exists()


class TestCompare:
    def test_schemes_agree_and_report(self):
        document = parse_document(BIB_XML)
        results = compare_schemes(
            document,
            ["/bib/book/title", "//last", "/bib/book[price > 50]/@id"],
            schemes=["edge", "interval", "dewey"],
        )
        assert set(results) == {"edge", "interval", "dewey"}
        for comparison in results.values():
            assert comparison.storage_bytes > 0
            assert comparison.supported_queries() == 3
            counts = {
                q: o.result_count for q, o in comparison.outcomes.items()
            }
            assert counts["//last"] == 5

    def test_unsupported_marked_not_failed(self):
        document = parse_document(BIB_XML)
        results = compare_schemes(
            document, ["/bib/book[2]/title"], schemes=["xrel", "interval"]
        )
        assert not results["xrel"].outcomes["/bib/book[2]/title"].supported
        assert results["interval"].outcomes["/bib/book[2]/title"].supported
