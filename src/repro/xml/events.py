"""Token/event stream representation of XML trees.

The tutorial contrasts *tree* storage with *token stream* storage: a linear
pre-order sequence of events, each carrying the data-model information of
one node boundary.  This module provides that second representation and the
conversions in both directions:

* :func:`stream_events` — DOM tree → event iterator (lazy),
* :func:`build_tree` — event iterator → DOM tree,
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
    Comment,
    Document,
    Element,
    Node,
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
    """
    if isinstance(node, Document):
        yield Event(EventKind.START_DOCUMENT)
        for child in node.children:
            yield from _stream_node(child)
        yield Event(EventKind.END_DOCUMENT)
    else:
        yield from _stream_node(node)


def _stream_node(node: Node) -> Iterator[Event]:
    if isinstance(node, Element):
        yield Event(EventKind.START_ELEMENT, name=node.tag)
        for attr in node.attributes:
            yield Event(EventKind.ATTRIBUTE, name=attr.name, value=attr.value)
        for child in node.children:
            yield from _stream_node(child)
        yield Event(EventKind.END_ELEMENT, name=node.tag)
    elif isinstance(node, Text):
        yield Event(EventKind.TEXT, value=node.data)
    elif isinstance(node, Comment):
        yield Event(EventKind.COMMENT, value=node.data)
    elif isinstance(node, ProcessingInstruction):
        yield Event(
            EventKind.PROCESSING_INSTRUCTION, name=node.target, value=node.data
        )
    else:
        raise XmlRelError(f"cannot stream node kind {node.kind!r}")


def build_tree(events: Iterable[Event]) -> Document:
    """Rebuild a :class:`Document` from a token stream.

    The inverse of :func:`stream_events`; raises on malformed streams
    (attribute outside a start tag, unbalanced end element, ...).
    """
    document = Document()
    stack: list[_Container] = [document]
    last_started: Element | None = None
    saw_start = False
    for event in events:
        kind = event.kind
        if kind is EventKind.START_DOCUMENT:
            if saw_start:
                raise XmlRelError("nested START_DOCUMENT in event stream")
            saw_start = True
        elif kind is EventKind.END_DOCUMENT:
            if len(stack) != 1:
                raise XmlRelError("END_DOCUMENT with open elements")
        elif kind is EventKind.START_ELEMENT:
            if event.name is None:
                raise XmlRelError("START_ELEMENT without a name")
            element = Element(event.name, validate=False)
            stack[-1].append_child(element)
            stack.append(element)
            last_started = element
        elif kind is EventKind.END_ELEMENT:
            if len(stack) <= 1:
                raise XmlRelError("END_ELEMENT without matching start")
            closing = stack.pop()
            if (
                event.name is not None
                and isinstance(closing, Element)
                and closing.tag != event.name
            ):
                raise XmlRelError(
                    f"END_ELEMENT {event.name!r} does not match "
                    f"open element {closing.tag!r}"
                )
            last_started = None
        elif kind is EventKind.ATTRIBUTE:
            if last_started is None or stack[-1] is not last_started:
                raise XmlRelError("ATTRIBUTE event outside a start tag")
            if event.name is None:
                raise XmlRelError("ATTRIBUTE event without a name")
            last_started.set_attribute(event.name, event.value or "")
        elif kind is EventKind.TEXT:
            parent = stack[-1]
            if not isinstance(parent, Element):
                raise XmlRelError("TEXT event at document level")
            parent.append_text(event.value or "")
            last_started = None
        elif kind is EventKind.COMMENT:
            stack[-1].append_child(Comment(event.value or ""))
            last_started = None
        elif kind is EventKind.PROCESSING_INSTRUCTION:
            if event.name is None:
                raise XmlRelError("PI event without a target")
            stack[-1].append_child(
                ProcessingInstruction(event.name, event.value or "")
            )
            last_started = None
        else:  # pragma: no cover - enum is closed
            raise XmlRelError(f"unknown event kind: {kind!r}")
    if len(stack) != 1:
        raise XmlRelError("event stream ended with open elements")
    return document


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
