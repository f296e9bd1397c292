"""Unit tests for serialization and the token/event stream."""

import pytest

from repro.errors import XmlRelError
from repro.xml import parse_document, serialize, serialize_pretty
from repro.xml.dom import deep_equal
from repro.xml.events import (
    Event,
    EventKind,
    build_tree,
    parse_events,
    stream_events,
)
from repro.xml.serialize import escape_attribute, escape_text


class TestEscaping:
    def test_text_escaping(self):
        assert escape_text("a<b>&c") == "a&lt;b&gt;&amp;c"

    def test_attribute_escaping(self):
        assert escape_attribute('a"b<c&d') == "a&quot;b&lt;c&amp;d"

    def test_attribute_whitespace_escaped(self):
        assert escape_attribute("a\tb\nc") == "a&#9;b&#10;c"


class TestSerialize:
    def test_empty_element_collapsed(self):
        doc = parse_document("<a></a>")
        assert serialize(doc) == "<a/>"

    def test_roundtrip_identity(self):
        src = '<r k="1"><a>x &amp; y</a><!--c--><?p d?><b z="&lt;"/></r>'
        doc = parse_document(src)
        assert deep_equal(doc, parse_document(serialize(doc)))

    def test_xml_declaration_option(self):
        doc = parse_document("<a/>")
        assert serialize(doc, xml_declaration=True).startswith("<?xml")

    def test_serialize_subtree(self):
        doc = parse_document("<r><a><b>x</b></a></r>")
        assert serialize(doc.root_element.find("a")) == "<a><b>x</b></a>"

    def test_pretty_is_structurally_equal(self):
        doc = parse_document('<r><a k="1"><b>text</b></a><c/></r>')
        pretty = serialize_pretty(doc)
        assert deep_equal(doc, parse_document(pretty), ignore_ws_text=True)
        assert "\n" in pretty

    def test_pretty_keeps_mixed_content_inline(self):
        doc = parse_document("<p>before <em>word</em> after</p>")
        pretty = serialize_pretty(doc)
        assert "before <em>word</em> after" in pretty


class TestEventStream:
    SRC = '<r k="v"><a>text</a><!--c--><?pi d?></r>'

    def test_event_sequence(self):
        doc = parse_document(self.SRC)
        kinds = [e.kind for e in stream_events(doc)]
        assert kinds == [
            EventKind.START_DOCUMENT,
            EventKind.START_ELEMENT,
            EventKind.ATTRIBUTE,
            EventKind.START_ELEMENT,
            EventKind.TEXT,
            EventKind.END_ELEMENT,
            EventKind.COMMENT,
            EventKind.PROCESSING_INSTRUCTION,
            EventKind.END_ELEMENT,
            EventKind.END_DOCUMENT,
        ]

    def test_roundtrip(self):
        doc = parse_document(self.SRC)
        rebuilt = build_tree(stream_events(doc))
        assert deep_equal(doc, rebuilt)

    def test_parse_events_shortcut(self):
        events = list(parse_events("<a><b/></a>"))
        names = [e.name for e in events if e.kind == EventKind.START_ELEMENT]
        assert names == ["a", "b"]

    def test_stream_subtree_without_document_events(self):
        doc = parse_document("<r><a/></r>")
        kinds = [e.kind for e in stream_events(doc.root_element)]
        assert kinds[0] == EventKind.START_ELEMENT
        assert EventKind.START_DOCUMENT not in kinds


class TestBuildTreeValidation:
    def test_unbalanced_end_rejected(self):
        events = [Event(EventKind.END_ELEMENT, name="a")]
        with pytest.raises(XmlRelError, match="without matching start"):
            build_tree(events)

    def test_open_elements_at_end_rejected(self):
        events = [Event(EventKind.START_ELEMENT, name="a")]
        with pytest.raises(XmlRelError, match="open elements"):
            build_tree(events)

    def test_mismatched_end_name_rejected(self):
        events = [
            Event(EventKind.START_ELEMENT, name="a"),
            Event(EventKind.END_ELEMENT, name="b"),
        ]
        with pytest.raises(XmlRelError, match="does not match"):
            build_tree(events)

    def test_attribute_after_content_rejected(self):
        events = [
            Event(EventKind.START_ELEMENT, name="a"),
            Event(EventKind.TEXT, value="t"),
            Event(EventKind.ATTRIBUTE, name="k", value="v"),
            Event(EventKind.END_ELEMENT, name="a"),
        ]
        with pytest.raises(XmlRelError, match="outside a start tag"):
            build_tree(events)

    def test_text_at_document_level_rejected(self):
        with pytest.raises(XmlRelError, match="document level"):
            build_tree([Event(EventKind.TEXT, value="x")])
