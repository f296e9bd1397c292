"""Unit tests for scheme-internal helpers (xrel patterns, universal
labels, binary partitions, inlining mapping structure)."""

import pytest

from repro.errors import SchemaMappingError
from repro.query.translate_xrel import xrel_path_match
from repro.relational.database import Database
from repro.storage.binary import partition_table_name
from repro.storage.edge import edge_label, label_name_sql
from repro.storage.inlining import (
    BASIC,
    DtdGraph,
    HYBRID,
    SHARED,
    build_mapping,
    decide_relations,
)
from repro.storage.inlining.scheme import InliningScheme
from repro.storage.numbering import NodeRecord
from repro.storage.universal import label_kind, label_name, node_label
from repro.xml import parse_document
from repro.xml.dom import NodeKind
from repro.xml.dtd import dtd_to_text, parse_dtd


class TestXRelPathMatch:
    def test_exact_child_chain(self):
        assert xrel_path_match("#/a#/b", "#/a#/b")
        assert not xrel_path_match("#/a#/b", "#/a#/b#/c")
        assert not xrel_path_match("#/a#/b", "#/a#/bb")

    def test_descendant_gap(self):
        assert xrel_path_match("#/a#//b", "#/a#/b")
        assert xrel_path_match("#/a#//b", "#/a#/x#/y#/b")
        assert not xrel_path_match("#/a#//b", "#/a#/xb")

    def test_leading_descendant(self):
        assert xrel_path_match("#//b", "#/b")
        assert xrel_path_match("#//b", "#/a#/b")

    def test_wildcard_single_component(self):
        assert xrel_path_match("#/a#/*#/c", "#/a#/b#/c")
        assert not xrel_path_match("#/a#/*#/c", "#/a#/b#/x#/c")

    def test_attribute_components(self):
        assert xrel_path_match("#/a#/@id", "#/a#/@id")
        assert not xrel_path_match("#/a#/@id", "#/a#/id")


class TestEdgeLabels:
    def make(self, kind, name=None, value=None):
        return NodeRecord(
            pre=1, post=1, size=0, level=1, kind=int(kind), name=name,
            value=value, parent_pre=0, ordinal=1, dewey="000001",
        )

    @staticmethod
    def label_to_name(label, kind):
        """The engine-side inverse the publish lane selects with."""
        with Database() as db:
            return db.scalar(
                f"SELECT {label_name_sql()} "
                "FROM (SELECT ? AS label, ? AS kind)",
                (label, kind),
            )

    def test_element_and_attribute(self):
        assert edge_label(self.make(NodeKind.ELEMENT, "book")) == "book"
        assert edge_label(self.make(NodeKind.ATTRIBUTE, "id")) == "id"

    def test_reserved_labels(self):
        assert edge_label(self.make(NodeKind.TEXT)) == "#text"
        assert edge_label(self.make(NodeKind.COMMENT)) == "#comment"

    def test_pi_keeps_target(self):
        label = edge_label(
            self.make(NodeKind.PROCESSING_INSTRUCTION, "style")
        )
        assert label == "#pi:style"
        assert self.label_to_name(
            label, int(NodeKind.PROCESSING_INSTRUCTION)
        ) == "style"

    def test_roundtrip(self):
        for kind, name in (
            (NodeKind.ELEMENT, "a"),
            (NodeKind.ATTRIBUTE, "k"),
            (NodeKind.TEXT, None),
            (NodeKind.COMMENT, None),
            (NodeKind.PROCESSING_INSTRUCTION, "a:b"),
        ):
            record = self.make(kind, name)
            assert self.label_to_name(edge_label(record), int(kind)) == name


class TestBinaryPartitionNames:
    def test_deterministic(self):
        assert partition_table_name("book") == partition_table_name("book")

    def test_case_and_punctuation_do_not_collide(self):
        assert partition_table_name("Book") != partition_table_name("book")
        assert partition_table_name("a.b") != partition_table_name("a_b")

    def test_reserved_labels_usable(self):
        assert partition_table_name("#text").startswith("b_text_")

    def test_long_labels_truncated(self):
        name = partition_table_name("x" * 200)
        assert len(name) < 64


class TestUniversalLabels:
    def test_node_label_kinds(self):
        cases = {
            (int(NodeKind.ELEMENT), "a"): "a",
            (int(NodeKind.ATTRIBUTE), "k"): "@k",
            (int(NodeKind.TEXT), None): "#text",
            (int(NodeKind.COMMENT), None): "#comment",
        }
        for (kind, name), expected in cases.items():
            record = NodeRecord(
                pre=1, post=1, size=0, level=1, kind=kind, name=name,
                value=None, parent_pre=0, ordinal=1, dewey="000001",
            )
            assert node_label(record) == expected

    def test_label_kind_and_name_roundtrip(self):
        assert label_kind("@id") == int(NodeKind.ATTRIBUTE)
        assert label_name("@id") == "id"
        assert label_kind("#text") == int(NodeKind.TEXT)
        assert label_name("#text") is None
        assert label_kind("#pi:go") == int(
            NodeKind.PROCESSING_INSTRUCTION
        )
        assert label_name("#pi:go") == "go"
        assert label_kind("title") == int(NodeKind.ELEMENT)
        assert label_name("title") == "title"


RECURSIVE_DTD = (
    "<!ELEMENT book (title, author*)>"
    "<!ELEMENT author (name, book*)>"
    "<!ELEMENT title (#PCDATA)>"
    "<!ELEMENT name (#PCDATA)>"
)


class TestDtdGraph:
    def test_graph_structure(self):
        graph = DtdGraph.from_dtd(parse_dtd(RECURSIVE_DTD))
        assert graph.in_degree("title") == 1
        assert graph.set_valued() == {"author", "book"}
        assert graph.recursive() == {"book", "author"}
        assert graph.roots() == set()

    def test_undeclared_reference_rejected(self):
        with pytest.raises(SchemaMappingError, match="undeclared"):
            DtdGraph.from_dtd(parse_dtd("<!ELEMENT a (missing)>"))

    def test_strategy_monotonicity(self):
        dtd = parse_dtd(
            "<!ELEMENT r (a, b*)><!ELEMENT a (c)><!ELEMENT b (c)>"
            "<!ELEMENT c (#PCDATA)>"
        )
        graph = DtdGraph.from_dtd(dtd)
        basic = decide_relations(graph, BASIC)
        shared = decide_relations(graph, SHARED)
        hybrid = decide_relations(graph, HYBRID)
        assert hybrid <= shared <= basic
        assert "c" in shared      # in-degree 2
        assert "c" not in hybrid  # merely shared -> inlined everywhere

    def test_unknown_strategy_rejected(self):
        graph = DtdGraph.from_dtd(parse_dtd("<!ELEMENT a EMPTY>"))
        with pytest.raises(SchemaMappingError, match="strategy"):
            decide_relations(graph, "turbo")


class TestInliningMapping:
    def test_positions_cover_inlined_elements(self):
        dtd = parse_dtd(
            "<!ELEMENT r (a, b*)><!ELEMENT a (c?)>"
            "<!ELEMENT b (#PCDATA)><!ELEMENT c (#PCDATA)>"
        )
        mapping = build_mapping(dtd, SHARED)
        assert set(mapping.relations) == {"r", "b"}
        r = mapping.relations["r"]
        assert set(r.positions) == {(), ("a",), ("a", "c")}
        assert r.positions[("a", "c")].content_column is not None

    def test_hybrid_duplicates_shared_positions(self):
        dtd = parse_dtd(
            "<!ELEMENT r (a, b)><!ELEMENT a (c)><!ELEMENT b (c)>"
            "<!ELEMENT c (#PCDATA)>"
        )
        mapping = build_mapping(dtd, HYBRID)
        positions = mapping.positions_of_element("c")
        assert len(positions) == 2  # once under a, once under b

    def test_mixed_content_rejected(self):
        dtd = parse_dtd("<!ELEMENT p (#PCDATA | em)*><!ELEMENT em EMPTY>")
        with pytest.raises(SchemaMappingError, match="mixed"):
            build_mapping(dtd, SHARED)

    def test_basic_strategy_not_storable(self):
        with Database() as db:
            with pytest.raises(SchemaMappingError, match="structural"):
                InliningScheme(
                    db, dtd=parse_dtd("<!ELEMENT a EMPTY>"),
                    strategy="basic",
                )


class TestInliningSchemePersistence:
    DTD_TEXT = (
        "<!ELEMENT bib (book*)><!ELEMENT book (title)>"
        "<!ATTLIST book id ID #REQUIRED>"
        "<!ELEMENT title (#PCDATA)>"
    )
    DOC = (
        "<bib><book id='b1'><title>One</title></book></bib>"
    )

    def test_reopen_rebuilds_mapping(self, tmp_path):
        path = str(tmp_path / "inline.db")
        with Database(path) as db:
            scheme = InliningScheme(db, dtd=parse_dtd(self.DTD_TEXT))
            doc_id = scheme.store(parse_document(self.DOC), "bib").doc_id
        with Database(path) as db:
            reopened = InliningScheme(db)  # no DTD passed: loads persisted
            assert reopened.query_pres(doc_id, "/bib/book/@id")
            titles = reopened.query_nodes(doc_id, "//title")
            assert [t.string_value for t in titles] == ["One"]

    def test_conflicting_schema_rejected(self, tmp_path):
        path = str(tmp_path / "inline.db")
        with Database(path) as db:
            InliningScheme(db, dtd=parse_dtd(self.DTD_TEXT))
        with Database(path) as db:
            with pytest.raises(SchemaMappingError, match="different"):
                InliningScheme(
                    db, dtd=parse_dtd("<!ELEMENT other EMPTY>")
                )

    def test_store_without_dtd_rejected(self):
        with Database() as db:
            scheme = InliningScheme(db)
            with pytest.raises(SchemaMappingError, match="no DTD"):
                scheme.store(parse_document(self.DOC), "bib")

    def test_nonconforming_document_rejected(self):
        with Database() as db:
            scheme = InliningScheme(db, dtd=parse_dtd(self.DTD_TEXT))
            bad = parse_document("<bib><magazine/></bib>")
            with pytest.raises(SchemaMappingError, match="not"):
                scheme.store(bad, "bad")

    def test_undeclared_attribute_rejected(self):
        with Database() as db:
            scheme = InliningScheme(db, dtd=parse_dtd(self.DTD_TEXT))
            bad = parse_document(
                "<bib><book id='b' bogus='x'><title>t</title></book></bib>"
            )
            with pytest.raises(SchemaMappingError, match="bogus"):
                scheme.store(bad, "bad")


class TestDtdSerialization:
    def test_roundtrip_structure(self):
        dtd = parse_dtd(
            "<!ELEMENT r (a+, b?)><!ELEMENT a (#PCDATA)>"
            "<!ELEMENT b EMPTY>"
            '<!ATTLIST r kind (x | y) "x" id ID #REQUIRED>'
            '<!ENTITY who "World">'
        )
        again = parse_dtd(dtd_to_text(dtd))
        assert again.element_names() == dtd.element_names()
        assert str(again.elements["r"].model) == str(dtd.elements["r"].model)
        attrs = {a.name: a for a in again.attributes_of("r")}
        assert attrs["kind"].enumeration == ("x", "y")
        assert attrs["kind"].default_value == "x"
        assert again.general_entities["who"].value == "World"
