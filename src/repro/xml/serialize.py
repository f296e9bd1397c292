"""Serialization of the tree model back to XML text.

Two entry points:

* :func:`serialize` — exact serialization, preserving text verbatim (so
  ``parse -> serialize -> parse`` is an identity on the tree, a property
  the test suite checks);
* :func:`serialize_pretty` — indented output for human inspection; inserts
  whitespace, so it is only structurally (not textually) equivalent.
"""

from __future__ import annotations

from io import StringIO
from typing import TextIO

from repro.errors import XmlRelError
from repro.xml.dom import (
    Attribute,
    Comment,
    Document,
    Element,
    Node,
    ProcessingInstruction,
    Text,
)


def escape_text(data: str) -> str:
    """Escape character data for element content (a literal ``\\r``
    would be read back as ``\\n``: XML 1.0 §2.11)."""
    return (
        data.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace("\r", "&#13;")
    )


def escape_attribute(data: str) -> str:
    """Escape an attribute value for inclusion in double quotes."""
    return (
        data.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace('"', "&quot;")
        .replace("\t", "&#9;")
        .replace("\n", "&#10;")
        .replace("\r", "&#13;")
    )


def serialize(node: Node, xml_declaration: bool = False) -> str:
    """Serialize *node* (document, element, or leaf) to XML text."""
    out = StringIO()
    if xml_declaration:
        out.write('<?xml version="1.0" encoding="UTF-8"?>\n')
    _write(node, out)
    return out.getvalue()


def serialize_pretty(node: Node, indent: str = "  ") -> str:
    """Serialize with indentation (structure-preserving, not text-exact).

    Elements with *mixed* content (any non-whitespace text child) are
    emitted inline so significant text is never distorted.
    """
    out = StringIO()
    _write_pretty(node, out, indent, 0)
    return out.getvalue()


def _write(node: Node, out: TextIO) -> None:
    if isinstance(node, Document):
        for child in node.children:
            _write(child, out)
    elif isinstance(node, Element):
        out.write(f"<{node.tag}")
        for attr in node.attributes:
            out.write(f' {attr.name}="{escape_attribute(attr.value)}"')
        if not node.children:
            out.write("/>")
            return
        out.write(">")
        for child in node.children:
            _write(child, out)
        out.write(f"</{node.tag}>")
    elif isinstance(node, Text):
        out.write(escape_text(node.data))
    elif isinstance(node, Comment):
        out.write(f"<!--{node.data}-->")
    elif isinstance(node, ProcessingInstruction):
        if node.data:
            out.write(f"<?{node.target} {node.data}?>")
        else:
            out.write(f"<?{node.target}?>")
    elif isinstance(node, Attribute):
        out.write(f'{node.name}="{escape_attribute(node.value)}"')
    else:
        raise XmlRelError(f"cannot serialize node kind {node.kind!r}")


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
            _write(node, out)
            out.write("\n")
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
    out.write(pad)
    _write(node, out)
    out.write("\n")
