"""Serialization of token streams and trees back to XML text.

Each input has one writer.  A tree is written by :func:`write_events`,
which consumes the token stream of :mod:`repro.xml.events` (replayed
from the tree by :func:`~repro.xml.events.stream_events`).  Stored rows
are written by :func:`~repro.storage.numbering.write_records`, one loop
from rows to text with no token in between.  Both escape through
:func:`escape_text` and :func:`escape_attribute`, and tests hold them
equal: ``tests/test_publish.py`` (stored documents and query results
against ``serialize``), ``tests/test_streaming.py`` (a document stored
through any door publishes as ``serialize`` of its tree) and
``tests/test_update_sequences.py`` (``reconstruct_xml ==
serialize(document)`` after every update).  Entry points:

* :func:`write_events` — token stream → exact XML text;
* :func:`serialize` — a tree node → exact XML text, preserving text
  verbatim (so ``parse -> serialize -> parse`` is an identity on the
  tree, a property the test suite checks);
* :func:`serialize_pretty` — indented output for human inspection; inserts
  whitespace, so it is only structurally (not textually) equivalent.
"""

from __future__ import annotations

from collections.abc import Iterable
from io import StringIO
from typing import TextIO

from repro.errors import XmlRelError
from repro.xml.dom import Document, Element, Node, Text
from repro.xml.events import Event, EventKind, stream_events


def escape_text(data: str) -> str:
    """Escape character data for element content (a literal ``\\r``
    would be read back as ``\\n``: XML 1.0 §2.11).  Most data holds
    none of the four characters and comes back as it is: four ``in``
    scans cost less than four ``replace`` calls."""
    if (
        "&" not in data and "<" not in data and ">" not in data
        and "\r" not in data
    ):
        return data
    return (
        data.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace("\r", "&#13;")
    )


def escape_attribute(data: str) -> str:
    """Escape an attribute value for inclusion in double quotes; a
    value with none of the six characters comes back as it is."""
    if (
        "&" not in data and "<" not in data and '"' not in data
        and "\t" not in data and "\n" not in data and "\r" not in data
    ):
        return data
    return (
        data.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace('"', "&quot;")
        .replace("\t", "&#9;")
        .replace("\n", "&#10;")
        .replace("\r", "&#13;")
    )


def write_events(events: Iterable[Event]) -> str:
    """Serialize a token stream to XML text.

    The stream may be a whole document's, one subtree's, or a single
    leaf's — a lone ATTRIBUTE event outside any element renders as
    ``name="value"``.  Childless elements render as ``<a/>``.  A stream
    no tree produces (an attribute after its element's first child, an
    end tag with nothing open or naming another element, elements left
    open) raises :class:`~repro.errors.XmlRelError`.
    """
    parts: list[str] = []
    append = parts.append
    open_tags: list[str] = []
    in_start_tag = False  # the innermost start tag still lacks its '>'
    kind_start = EventKind.START_ELEMENT
    kind_end = EventKind.END_ELEMENT
    kind_attribute = EventKind.ATTRIBUTE
    kind_text = EventKind.TEXT
    for kind, name, value in events:
        if kind is kind_attribute:
            if in_start_tag:
                append(f' {name}="{escape_attribute(value)}"')
            elif not open_tags:
                append(f'{name}="{escape_attribute(value)}"')
            else:
                raise XmlRelError("ATTRIBUTE event outside a start tag")
            continue
        if kind is kind_end:
            if not open_tags:
                raise XmlRelError("END_ELEMENT without matching start")
            tag = open_tags.pop()
            if name is not None and name != tag:
                raise XmlRelError(
                    f"END_ELEMENT {name!r} does not match open "
                    f"element {tag!r}"
                )
            append("/>" if in_start_tag else f"</{tag}>")
            in_start_tag = False
            continue
        if in_start_tag:
            append(">")
            in_start_tag = False
        if kind is kind_start:
            append(f"<{name}")
            open_tags.append(name)
            in_start_tag = True
        elif kind is kind_text:
            append(escape_text(value))
        elif kind is EventKind.COMMENT:
            append(f"<!--{value}-->")
        elif kind is EventKind.PROCESSING_INSTRUCTION:
            append(f"<?{name} {value}?>" if value else f"<?{name}?>")
        # START_DOCUMENT / END_DOCUMENT produce no text.
    if open_tags:
        raise XmlRelError("event stream ended with open elements")
    return "".join(parts)


def serialize(node: Node, xml_declaration: bool = False) -> str:
    """Serialize *node* (document, element, or leaf) to XML text."""
    text = write_events(stream_events(node))
    if xml_declaration:
        return '<?xml version="1.0" encoding="UTF-8"?>\n' + text
    return text


def serialize_pretty(node: Node, indent: str = "  ") -> str:
    """Serialize with indentation (structure-preserving, not text-exact).

    Elements with *mixed* content (any non-whitespace text child) are
    emitted inline so significant text is never distorted.
    """
    out = StringIO()
    _write_pretty(node, out, indent, 0)
    return out.getvalue()


def _has_significant_text(element: Element) -> bool:
    return any(
        isinstance(c, Text) and not c.is_whitespace for c in element.children
    )


def _write_pretty(node: Node, out: TextIO, indent: str, level: int) -> None:
    pad = indent * level
    if isinstance(node, Document):
        for child in node.children:
            _write_pretty(child, out, indent, level)
        return
    if isinstance(node, Element):
        out.write(pad)
        if _has_significant_text(node) or not node.children:
            out.write(serialize(node) + "\n")
            return
        out.write(f"<{node.tag}")
        for attr in node.attributes:
            out.write(f' {attr.name}="{escape_attribute(attr.value)}"')
        out.write(">\n")
        for child in node.children:
            if isinstance(child, Text) and child.is_whitespace:
                continue
            _write_pretty(child, out, indent, level + 1)
        out.write(f"{pad}</{node.tag}>\n")
        return
    if isinstance(node, Text):
        if not node.is_whitespace:
            out.write(pad + escape_text(node.data) + "\n")
        return
    out.write(pad + serialize(node) + "\n")
