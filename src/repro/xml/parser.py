"""XML 1.0 documents as trees (non-validating, DTD-aware).

:func:`parse_document` is :func:`~repro.xml.events.build_tree` over the
one XML parser the package has — the pull parser in
:mod:`repro.xml.stream` — so a tree and a token stream of the same
source cannot disagree.  What that parser implements:

* prolog: XML declaration, comments, PIs, one DOCTYPE with an internal
  subset (handed to :mod:`repro.xml.dtd`),
* element structure with attributes (duplicate attribute names rejected),
* character data with entity expansion: the five predefined entities,
  decimal/hex character references, and internal general entities declared
  in the DTD (with a recursion guard),
* CDATA sections, comments (``--`` inside rejected) and PIs,
* well-formedness: matching end tags, single root element, no content after
  the root, only legal XML characters, XML 1.0 line-end normalization.

Parsing options mirror what the storage layer needs: whitespace-only text
between elements can be kept (default) or dropped, and adjacent text runs
are always merged into one text node, matching the XPath data model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.xml.dom import Document, Element
from repro.xml.events import build_tree

# Element nesting bound: the passes over a parsed tree (numbering,
# serialization, evaluation) are recursive at ~3 Python frames per
# level, so unbounded depth would surface as an opaque RecursionError
# downstream; the parser rejects it early with a clear message instead.
# 200 is far beyond any data-centric document and safely inside
# Python's default stack.
MAX_ELEMENT_DEPTH = 200


@dataclass(frozen=True)
class ParseOptions:
    """Knobs controlling document parsing.

    ``keep_whitespace``
        Keep whitespace-only text nodes between elements (default True;
        the storage schemes can be exercised either way).
    ``resolve_entities``
        Expand internal general entities declared in the DTD.  When False,
        an undeclared/unresolvable entity reference is a syntax error
        anyway, since this parser has no "skip" representation.
    """

    keep_whitespace: bool = True
    resolve_entities: bool = True


def parse_document(
    source: str, options: ParseOptions | None = None
) -> Document:
    """Parse a complete XML document and return its :class:`Document`."""
    from repro.xml.stream import PullParser  # it imports ParseOptions

    parser = PullParser(source, options)
    document = build_tree(parser.events())
    document.doctype_name = parser.doctype_name
    document.dtd = parser.dtd
    return document


def parse_fragment(
    source: str, options: ParseOptions | None = None
) -> Element:
    """Parse a single element (fragment) and return it, detached.

    Convenience for tests and update payloads: the fragment must consist of
    exactly one element, optionally surrounded by whitespace.
    """
    document = parse_document(source, options)
    root = document.root_element
    document.remove_child(root)
    return root
