"""XML substrate: parser, tree data model, serializer, event stream, DTD.

This subpackage is a self-contained XML 1.0 processor built from scratch (no
``lxml``/``expat`` dependency) so the rest of the library has full control
over document order, node identity, and DTD content models — the three
properties the relational mappings depend on.  There is one parser, the
pull parser in :mod:`repro.xml.stream`; a tree is ``build_tree`` over its
events.  Expat appears only in the test suite, as that parser's oracle.
"""

from repro.xml.dom import (
    Attribute,
    Comment,
    Document,
    Element,
    Node,
    NodeKind,
    ProcessingInstruction,
    Text,
)
from repro.xml.parser import parse_document, parse_fragment
from repro.xml.serialize import serialize, serialize_pretty
from repro.xml.dtd import Dtd, parse_dtd

__all__ = [
    "Attribute",
    "Comment",
    "Document",
    "Dtd",
    "Element",
    "Node",
    "NodeKind",
    "ProcessingInstruction",
    "Text",
    "parse_document",
    "parse_dtd",
    "parse_fragment",
    "serialize",
    "serialize_pretty",
]
