"""Unit tests for the tree data model (document order, mutation, equality)."""

import pytest

from repro.errors import XmlRelError
from repro.xml import parse_document
from repro.xml.dom import (
    Attribute,
    Document,
    Element,
    NodeKind,
    deep_equal,
)


def build_sample():
    doc = Document()
    root = doc.append_child(Element("root"))
    a = root.append_child(Element("a", [("x", "1")]))
    a.append_text("text-a")
    b = root.append_child(Element("b"))
    b.append_child(Element("c"))
    return doc, root, a, b


class TestConstruction:
    def test_invalid_element_name_rejected(self):
        with pytest.raises(XmlRelError, match="invalid element name"):
            Element("1bad")

    def test_invalid_attribute_name_rejected(self):
        with pytest.raises(XmlRelError, match="invalid attribute name"):
            Attribute("no spaces", "v")

    def test_set_attribute_overwrites(self):
        e = Element("e")
        e.set_attribute("k", "1")
        e.set_attribute("k", "2")
        assert e.get_attribute("k") == "2"
        assert len(e.attributes) == 1

    def test_remove_attribute(self):
        e = Element("e", [("k", "1"), ("m", "2")])
        e.remove_attribute("k")
        assert e.get_attribute("k") is None
        assert e.get_attribute("m") == "2"

    def test_append_text_merges(self):
        e = Element("e")
        e.append_text("ab")
        e.append_text("cd")
        assert len(e.children) == 1
        assert e.text == "abcd"


class TestMutationRules:
    def test_cannot_attach_node_twice(self):
        doc, root, a, b = build_sample()
        with pytest.raises(XmlRelError, match="already has a parent"):
            b.append_child(a)

    def test_cannot_insert_under_self(self):
        doc, root, a, b = build_sample()
        c = b.children[0]
        doc.remove_child(root)
        with pytest.raises(XmlRelError, match="under itself"):
            c.append_child(root)

    def test_remove_child_detaches(self):
        doc, root, a, b = build_sample()
        root.remove_child(a)
        assert a.parent is None
        assert a not in root.children

    def test_remove_non_child_raises(self):
        doc, root, a, b = build_sample()
        with pytest.raises(XmlRelError, match="not a child"):
            a.remove_child(b)

    def test_insert_child_at_position(self):
        doc, root, a, b = build_sample()
        new = Element("mid")
        root.insert_child(1, new)
        assert [c.tag for c in root.child_elements()] == ["a", "mid", "b"]


class TestNavigation:
    def test_ancestors(self):
        doc, root, a, b = build_sample()
        c = b.children[0]
        assert list(c.ancestors()) == [b, root, doc]

    def test_depth(self):
        doc, root, a, b = build_sample()
        assert root.depth == 1
        assert b.children[0].depth == 3

    def test_document_property(self):
        doc, root, a, b = build_sample()
        assert b.children[0].document is doc
        detached = Element("x")
        assert detached.document is None

    def test_iter_preorder(self):
        doc, root, a, b = build_sample()
        tags = [n.tag for n in doc.iter() if isinstance(n, Element)]
        assert tags == ["root", "a", "b", "c"]

    def test_iter_elements_filter(self):
        doc = parse_document("<r><x/><y><x/></y></r>")
        assert len(list(doc.iter_elements("x"))) == 2

    def test_find_helpers(self):
        doc = parse_document("<r><a i='1'/><b/><a i='2'/></r>")
        root = doc.root_element
        assert root.find("a").get_attribute("i") == "1"
        assert [e.get_attribute("i") for e in root.find_all("a")] == ["1", "2"]
        assert root.find("zzz") is None


class TestDocumentOrder:
    def test_order_matches_document_layout(self):
        doc = parse_document('<r a="1"><x b="2">t</x><y/></r>')
        doc.assign_order()
        nodes = list(doc.iter_with_attributes())
        keys = [n.order_key for n in nodes]
        assert keys == sorted(keys)
        assert keys == list(range(len(nodes)))

    def test_attributes_ordered_after_element_before_children(self):
        doc = parse_document('<r a="1"><x/></r>')
        root = doc.root_element
        attr = root.attributes[0]
        child = root.children[0]
        assert root.precedes(attr)
        assert attr.precedes(child)

    def test_order_invalidated_by_mutation(self):
        doc, root, a, b = build_sample()
        assert a.precedes(b)
        root.remove_child(a)
        root.append_child(a)
        assert b.precedes(a)

    def test_detached_node_has_no_order(self):
        with pytest.raises(XmlRelError, match="detached"):
            Element("x").order_key


class TestStringValue:
    def test_element_string_value_concatenates_descendant_text(self):
        doc = parse_document("<r>a<b>b<c>c</c></b>d</r>")
        assert doc.root_element.string_value == "abcd"

    def test_document_string_value(self):
        doc = parse_document("<r>xy</r>")
        assert doc.string_value == "xy"

    def test_attribute_string_value(self):
        doc = parse_document('<r k="v"/>')
        assert doc.root_element.attributes[0].string_value == "v"


class TestDeepEqual:
    def test_equal_documents(self):
        a = parse_document("<r><x k='1'>t</x></r>")
        b = parse_document("<r><x k='1'>t</x></r>")
        assert deep_equal(a, b)

    def test_attribute_value_difference_detected(self):
        a = parse_document("<r k='1'/>")
        b = parse_document("<r k='2'/>")
        assert not deep_equal(a, b)

    def test_child_order_difference_detected(self):
        a = parse_document("<r><x/><y/></r>")
        b = parse_document("<r><y/><x/></r>")
        assert not deep_equal(a, b)

    def test_ignore_whitespace_mode(self):
        a = parse_document("<r>\n  <x/>\n</r>")
        b = parse_document("<r><x/></r>")
        assert not deep_equal(a, b)
        assert deep_equal(a, b, ignore_ws_text=True)

    def test_comment_and_pi_compared(self):
        a = parse_document("<r><!--c--><?p d?></r>")
        b = parse_document("<r><!--c--><?p d?></r>")
        c = parse_document("<r><!--other--><?p d?></r>")
        assert deep_equal(a, b)
        assert not deep_equal(a, c)


class TestRootElement:
    def test_root_element_ok(self):
        doc = parse_document("<!--c--><r/>")
        assert doc.root_element.tag == "r"

    def test_root_element_missing_raises(self):
        doc = Document()
        with pytest.raises(XmlRelError, match="expected 1"):
            doc.root_element

    def test_node_kinds(self):
        doc = parse_document("<r k='v'>t<!--c--><?p?></r>")
        r = doc.root_element
        assert doc.kind == NodeKind.DOCUMENT
        assert r.kind == NodeKind.ELEMENT
        assert r.attributes[0].kind == NodeKind.ATTRIBUTE
        kinds = {c.kind for c in r.children}
        assert kinds == {
            NodeKind.TEXT,
            NodeKind.COMMENT,
            NodeKind.PROCESSING_INSTRUCTION,
        }
