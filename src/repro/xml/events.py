"""Token/event stream representation of XML trees.

The tutorial contrasts *tree* storage with *token stream* storage: a linear
pre-order sequence of events, each carrying the data-model information of
one node boundary.  This module provides that second representation and the
conversions in both directions:

* :func:`stream_events` — DOM tree → event iterator (lazy),
* :func:`build_tree` — event iterator → DOM tree
  (:func:`build_fragment` for the stream of a single node),
* :func:`parse_events` — XML text/file → events through the streaming
  pull parser (:mod:`repro.xml.stream`): the tree is never built, so
  memory stays O(depth) however large the document,
* :func:`payload_events` — :func:`stream_events` or
  :func:`parse_events`, chosen by payload type (what every ``store``
  entry point feeds the shredder).

Shredders consume events so that every storage scheme is implementable in
one pass over the stream — this keeps shredding O(n) and mirrors how a
production loader would ingest documents too large for memory.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Iterator
from typing import NamedTuple

from repro.errors import XmlRelError
from repro.xml.dom import (
    Attribute,
    Comment,
    Document,
    Element,
    Node,
    NodeKind,
    ProcessingInstruction,
    Text,
    _Container,
)


class EventKind(enum.Enum):
    """Kinds of events in the token stream."""

    START_DOCUMENT = "start-document"
    END_DOCUMENT = "end-document"
    START_ELEMENT = "start-element"
    END_ELEMENT = "end-element"
    ATTRIBUTE = "attribute"
    TEXT = "text"
    COMMENT = "comment"
    PROCESSING_INSTRUCTION = "processing-instruction"


class Event(NamedTuple):
    """One token in the stream.

    ``name`` is the element tag, attribute name, or PI target; ``value`` is
    the attribute value, text data, comment data, or PI data.  Structural
    events (start/end document, end element) carry neither.

    A named tuple rather than a dataclass: streaming shredders build one
    Event per token, so construction cost is on the ingest hot path and
    tuple construction is several times cheaper.
    """

    kind: EventKind
    name: str | None = None
    value: str | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [self.kind.value]
        if self.name is not None:
            parts.append(self.name)
        if self.value is not None:
            preview = (
                self.value if len(self.value) <= 20 else self.value[:17] + "..."
            )
            parts.append(repr(preview))
        return f"<Event {' '.join(parts)}>"


def stream_events(node: Node) -> Iterator[Event]:
    """Yield the token stream of *node* (document or subtree) lazily.

    Attribute events immediately follow their element's START_ELEMENT, in
    attribute order — the same position they occupy in document order.
    A lone attribute node streams as its single ATTRIBUTE event.
    """
    if isinstance(node, Document):
        yield Event(EventKind.START_DOCUMENT)
        yield from _stream_nodes(node.children)
        yield Event(EventKind.END_DOCUMENT)
    else:
        yield from _stream_nodes([node])


def _stream_nodes(nodes: list[Node]) -> Iterator[Event]:
    """The events of sibling subtrees, walked with an explicit stack of
    child iterators — one generator frame per event however deep the
    tree, and a leaf costs no stack traffic at all.  Events are
    immutable, so each tag's START/END pair is built once."""
    # tuple.__new__ is Event's generated __new__ minus its Python frame
    # (the pull parser builds its events the same way).
    new, event = tuple.__new__, Event
    attribute, text = EventKind.ATTRIBUTE, EventKind.TEXT
    element_kind, text_kind = NodeKind.ELEMENT, NodeKind.TEXT
    tag_events: dict[str, tuple[Event, Event]] = {}
    levels = [iter(nodes)]
    open_ends: list[Event] = []
    while levels:
        for node in levels[-1]:
            kind = node.kind
            if kind is element_kind:
                tag = node.tag
                pair = tag_events.get(tag)
                if pair is None:
                    pair = tag_events[tag] = (
                        new(event, (EventKind.START_ELEMENT, tag, None)),
                        new(event, (EventKind.END_ELEMENT, tag, None)),
                    )
                yield pair[0]
                for attr in node.attributes:
                    yield new(event, (attribute, attr.name, attr.value))
                children = node.children
                if children:
                    open_ends.append(pair[1])
                    levels.append(iter(children))
                    break
                yield pair[1]
            elif kind is text_kind:
                yield new(event, (text, None, node.data))
            elif kind is NodeKind.COMMENT:
                yield new(event, (EventKind.COMMENT, None, node.data))
            elif kind is NodeKind.PROCESSING_INSTRUCTION:
                yield new(
                    event,
                    (EventKind.PROCESSING_INSTRUCTION, node.target, node.data),
                )
            elif kind is NodeKind.ATTRIBUTE:
                yield new(event, (attribute, node.name, node.value))
            else:
                raise XmlRelError(f"cannot stream node kind {kind!r}")
        else:
            levels.pop()
            if open_ends:
                yield open_ends.pop()


def build_tree(events: Iterable[Event]) -> Document:
    """Rebuild a :class:`Document` from a token stream.

    The inverse of :func:`stream_events`; raises on malformed streams
    (attribute outside a start tag, unbalanced end element, ...).
    """
    document = Document()
    _build(events, document)
    return document


def build_fragment(events: Iterable[Event]) -> Node:
    """Rebuild the single detached node a token stream describes — the
    inverse of :func:`stream_events` on an element, attribute, text,
    comment or PI node (what a stored subtree publishes as)."""
    holder = Element("fragment", validate=False)
    _build(events, holder)
    nodes = holder.attributes + holder.children
    if len(nodes) != 1:
        raise XmlRelError(
            f"fragment stream holds {len(nodes)} top-level nodes, "
            "expected 1"
        )
    nodes[0].parent = None
    return nodes[0]


def _build(events: Iterable[Event], root: _Container) -> None:
    """Attach the nodes of *events* under the fresh node *root*.  A
    :class:`Document` root takes a document's stream; an
    :class:`Element` root stands in for a fragment's parent and so also
    accepts leading attributes and text.

    Every node is created here and attached once, so the checks
    ``append_child`` makes for arbitrary callers (already parented,
    cyclic, order-stamp invalidation of a stamped document) have nothing
    to find: nodes are linked directly.
    """
    kind_start, kind_end = EventKind.START_ELEMENT, EventKind.END_ELEMENT
    kind_attribute, kind_text = EventKind.ATTRIBUTE, EventKind.TEXT
    stack: list[_Container] = [root]
    top = root
    last_started = root if isinstance(root, Element) else None
    saw_start = False
    for kind, name, value in events:
        if kind is kind_start:
            if name is None:
                raise XmlRelError("START_ELEMENT without a name")
            node = Element(name, validate=False)
            node.parent = top
            top.children.append(node)
            stack.append(node)
            top = last_started = node
            continue
        if kind is kind_end:
            if len(stack) <= 1:
                raise XmlRelError("END_ELEMENT without matching start")
            closing = stack.pop()
            if name is not None and closing.tag != name:
                raise XmlRelError(
                    f"END_ELEMENT {name!r} does not match "
                    f"open element {closing.tag!r}"
                )
            top = stack[-1]
            last_started = None
            continue
        elif kind is kind_attribute:
            if last_started is None or top is not last_started:
                raise XmlRelError("ATTRIBUTE event outside a start tag")
            if name is None:
                raise XmlRelError("ATTRIBUTE event without a name")
            for attribute in top.attributes:
                if attribute.name == name:  # as set_attribute: last wins
                    attribute.value = value or ""
                    break
            else:
                attribute = Attribute(name, value or "", validate=False)
                attribute.parent = top
                top.attributes.append(attribute)
            continue
        elif kind is kind_text:
            if not isinstance(top, Element):
                raise XmlRelError("TEXT event at document level")
            last_started = None
            siblings = top.children
            if siblings and type(siblings[-1]) is Text:
                siblings[-1].data += value or ""
                continue
            node = Text(value or "")
        elif kind is EventKind.COMMENT:
            node = Comment(value or "")
            last_started = None
        elif kind is EventKind.PROCESSING_INSTRUCTION:
            if name is None:
                raise XmlRelError("PI event without a target")
            node = ProcessingInstruction(name, value or "")
            last_started = None
        elif kind is EventKind.START_DOCUMENT:
            if saw_start:
                raise XmlRelError("nested START_DOCUMENT in event stream")
            saw_start = True
            continue
        elif kind is EventKind.END_DOCUMENT:
            if len(stack) != 1:
                raise XmlRelError("END_DOCUMENT with open elements")
            continue
        else:  # pragma: no cover - enum is closed
            raise XmlRelError(f"unknown event kind: {kind!r}")
        node.parent = top
        top.children.append(node)
    if len(stack) != 1:
        raise XmlRelError("event stream ended with open elements")


def parse_events(source, options=None) -> Iterator[Event]:
    """Token stream of an XML source — *without* building a tree.

    *source* may be XML text, an open text-mode file object, or a path
    (:class:`os.PathLike`); *options* a
    :class:`~repro.xml.parser.ParseOptions`.  This is the pull parser
    (:mod:`repro.xml.stream`): memory is O(depth), so the stream works
    for documents far larger than RAM, and ``build_tree`` over it is
    what :func:`~repro.xml.parser.parse_document` returns.
    """
    from repro.xml.stream import iter_events

    return iter_events(source, options)


def payload_events(source, options=None) -> Iterator[Event]:
    """Token stream of one ingest payload, whatever its form: a parsed
    :class:`Document` replays through :func:`stream_events`; XML text,
    open file objects and paths go through :func:`parse_events` without
    ever materializing a tree."""
    if isinstance(source, Document):
        return stream_events(source)
    return parse_events(source, options)
