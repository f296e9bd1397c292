"""Node numbering: the order encodings every storage scheme draws from.

One pass over a document's token stream (:func:`shred_into`) computes,
for every *stored* node (elements, attributes, text, comments,
processing instructions — everything except the document node itself):

``pre``
    Document-order position (matches ``Node.order_key``; the document node
    holds 0, so stored nodes start at 1).  This is the node id shared by
    all schemes, which is what makes cross-scheme differential testing a
    set comparison.
``post``
    Post-order position.  ``pre``/``post`` together define the classic
    plane in which the XPath axes are rectangular windows (Grust, 2002).
``size``
    Number of stored nodes in the subtree below (attributes included), so
    ``descendant(a) = { d : pre(a) < pre(d) <= pre(a)+size(a) }``.
``level``
    Depth (root element is level 1; its attributes level 2).
``ordinal``
    1-based position among the parent's stored children, attributes first
    (their document-order slot).
``dewey``
    The Dewey order label: the ``ordinal`` components along the path from
    the root, each written length-prefixed (:func:`dewey_component`) so
    that *lexicographic order equals document order* and prefix-of
    equals ancestor-of.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

from repro.errors import StorageError
from repro.xml.dom import NodeKind
from repro.xml.serialize import escape_attribute, escape_text

DEWEY_SEPARATOR = "."
# One length digit: a component holds an ordinal of up to nine digits.
DEWEY_MAX_ORDINAL = 10 ** 9 - 1


def dewey_component(ordinal: int) -> str:
    """Component for one sibling ordinal: its digit count, then its
    digits (3 → ``"13"``, 12 → ``"212"``, 250 → ``"3250"``).

    As strings, a longer ordinal sorts after a shorter one on the length
    digit and equal lengths compare digit by digit, so component order
    is ordinal order.  No component is a proper prefix of another (the
    length digit fixes its width), so a label prefix that ends at a
    separator is exactly an ancestor.
    """
    if ordinal <= 0 or ordinal > DEWEY_MAX_ORDINAL:
        raise StorageError(f"dewey ordinal out of range: {ordinal}")
    digits = str(ordinal)
    return f"{len(digits)}{digits}"


# Small-ordinal components, precomputed and indexed by ordinal (slot 0
# is never read): sibling ordinals are almost always tiny and the
# streaming shredder needs one per stored node.  Building each with
# dewey_component instead costs about a fifth of shred_into's time.
_DEWEY_CACHE = ("",) + tuple(dewey_component(i) for i in range(1, 1024))


def dewey_label_fault(label: str) -> str | None:
    """Why *label* is not a run of canonical components, or None: a
    component that is empty, not digits, has a length digit other than
    the count of digits after it, or a leading zero (labels written
    six-digit zero-padded fail the length digit)."""
    for component in label.split(DEWEY_SEPARATOR):
        if not (component.isascii() and component.isdigit()):
            return f"component {component!r} is not a digit string"
        if component[0] == "0":
            return f"component {component!r} has length digit 0"
        if int(component[0]) != len(component) - 1:
            return (
                f"component {component!r} has length digit "
                f"{component[0]} but {len(component) - 1} digit(s)"
            )
        if component[1] == "0":
            return f"component {component!r} has a leading zero"
    return None


def dewey_parent(label: str) -> str | None:
    """The parent's label, or None for a root-level label."""
    if DEWEY_SEPARATOR not in label:
        return None
    return label.rsplit(DEWEY_SEPARATOR, 1)[0]


def dewey_depth(label: str) -> int:
    """Number of components in *label*."""
    return label.count(DEWEY_SEPARATOR) + 1


def dewey_is_ancestor(ancestor: str, descendant: str) -> bool:
    """Prefix test: is *ancestor* a proper Dewey ancestor of *descendant*?"""
    return descendant.startswith(ancestor + DEWEY_SEPARATOR)


class NodeRecord(NamedTuple):
    """The numbering facts of one stored node.

    A named tuple rather than a dataclass: shredding builds one record
    per stored node, so construction cost is on the ingest hot path and
    tuple construction is several times cheaper.
    """

    pre: int
    post: int
    size: int
    level: int
    kind: int                # NodeKind value
    name: str | None         # element tag / attribute name / PI target
    value: str | None        # attribute value / text / comment / PI data
    parent_pre: int          # 0 when the parent is the document node
    ordinal: int             # 1-based among the parent's stored children
    dewey: str

    @property
    def is_element(self) -> bool:
        return self.kind == NodeKind.ELEMENT

    @property
    def is_attribute(self) -> bool:
        return self.kind == NodeKind.ATTRIBUTE


class _StreamFrame:
    """Numbering state of one open element (the O(depth) working set)."""

    __slots__ = (
        "pre", "name", "level", "ordinal", "dewey", "parent_pre",
        "size", "next_ordinal", "kid_count", "all_text", "text_parts",
    )

    def __init__(
        self, pre: int, name: str, level: int, ordinal: int,
        dewey: str, parent_pre: int,
    ) -> None:
        self.pre = pre
        self.name = name
        self.level = level
        self.ordinal = ordinal
        self.dewey = dewey
        self.parent_pre = parent_pre
        self.size = 0            # stored nodes below (attrs included)
        self.next_ordinal = 1    # next child's sibling position
        self.kid_count = 0       # non-attribute children so far
        self.all_text = True     # every non-attribute child was TEXT
        self.text_parts: list[str] = []


def shred_into(events, add, enter=None) -> tuple[int, str]:
    """Number an event stream incrementally, with O(depth) memory —
    the one place under ``src/`` where nodes get their numbers.

    *enter(pre, name, parent_pre)*, when given, is called as each
    element opens.  These calls arrive in **pre order** and let
    order-sensitive side tables (binary's partition registry, XRel's
    path dictionary) be populated first-seen (the
    :meth:`StreamInserter.enter` hook).

    *add(record, content)* receives every completed node: its full
    :class:`NodeRecord` plus the text-only-element ``content`` cache
    every scheme keeps for single-column value predicates (the "inlined
    value" idea of the edge paper) — ``""`` for childless elements, the
    concatenated text for text-only elements, ``None`` otherwise;
    always ``None`` for non-elements.
    Attributes/text/comments/PIs complete at their own position, so
    the subsequence of non-element nodes is in pre order; elements
    complete at their end tag — **post order** — which is the earliest
    moment ``post`` and ``size`` exist.

    This close-time delivery *is* the "two-pass / patch-up" numbering
    the interval, Dewey and XRel-region schemes need: instead of
    inserting half-numbered element rows at the start tag and patching
    ``post``/``size`` with SQL UPDATEs afterwards (twice the statements
    and a non-monotonic write pattern), the element's row is simply
    withheld for the lifetime of its subtree — bounded by depth, not
    document size — and delivered complete.

    *events* may come from any caller, so a stream no parser would
    produce (an end tag with nothing open or naming another element, an
    attribute after its element's first child, text at document level,
    elements left open) raises :class:`~repro.errors.StorageError`.
    Returns ``(node_count, root_tag)``.
    """
    from repro.xml.events import EventKind

    pre_counter = 0
    post_counter = 0
    doc_ordinal = 1
    node_count = 0
    root_tag = ""
    stack: list[_StreamFrame] = []

    attribute_kind = int(NodeKind.ATTRIBUTE)
    element_kind = int(NodeKind.ELEMENT)
    text_kind = int(NodeKind.TEXT)
    comment_kind = int(NodeKind.COMMENT)
    pi_kind = int(NodeKind.PROCESSING_INSTRUCTION)

    # Hot-loop locals: one enum attribute lookup per event kind instead
    # of one per event, and the cached small-ordinal Dewey components.
    kind_start = EventKind.START_ELEMENT
    kind_end = EventKind.END_ELEMENT
    kind_attribute = EventKind.ATTRIBUTE
    kind_text_event = EventKind.TEXT
    dewey_cache = _DEWEY_CACHE
    cache_size = len(dewey_cache)
    frame_cls = _StreamFrame

    for kind, ev_name, ev_value in events:
        if kind is kind_start:
            pre_counter += 1
            if stack:
                parent = stack[-1]
                ordinal = parent.next_ordinal
                parent.next_ordinal = ordinal + 1
                parent.kid_count += 1
                if parent.all_text:
                    parent.all_text = False
                    parent.text_parts.clear()
                frame = frame_cls(
                    pre_counter, ev_name or "", parent.level + 1,
                    ordinal,
                    parent.dewey + DEWEY_SEPARATOR
                    + (dewey_cache[ordinal] if ordinal < cache_size
                       else dewey_component(ordinal)),
                    parent.pre,
                )
            else:
                ordinal = doc_ordinal
                doc_ordinal += 1
                frame = frame_cls(
                    pre_counter, ev_name or "", 1, ordinal,
                    dewey_component(ordinal), 0,
                )
                if not root_tag:
                    root_tag = frame.name
            stack.append(frame)
            if enter is not None:
                enter(frame.pre, frame.name, frame.parent_pre)
        elif kind is kind_end:
            if not stack:
                raise StorageError("end-element event with nothing open")
            frame = stack.pop()
            if ev_name is not None and ev_name != frame.name:
                raise StorageError(
                    f"end-element event {ev_name!r} does not match open "
                    f"element {frame.name!r}"
                )
            post_counter += 1
            if frame.kid_count == 0:
                content = ""
            elif frame.all_text:
                content = "".join(frame.text_parts)
            else:
                content = None
            if stack:
                stack[-1].size += frame.size + 1
            node_count += 1
            add(
                NodeRecord(
                    frame.pre,
                    post_counter,
                    frame.size,
                    frame.level,
                    element_kind,
                    frame.name,
                    None,
                    frame.parent_pre,
                    frame.ordinal,
                    frame.dewey,
                ),
                content,
            )
        elif kind is kind_attribute:
            if not stack:
                raise StorageError("attribute event outside an element")
            parent = stack[-1]
            if parent.kid_count:
                raise StorageError(
                    f"attribute event {ev_name!r} after the first child "
                    f"of element {parent.name!r}"
                )
            pre_counter += 1
            post_counter += 1
            ordinal = parent.next_ordinal
            parent.next_ordinal = ordinal + 1
            parent.size += 1
            node_count += 1
            add(
                NodeRecord(
                    pre_counter,
                    post_counter,
                    0,
                    parent.level + 1,
                    attribute_kind,
                    ev_name,
                    ev_value,
                    parent.pre,
                    ordinal,
                    parent.dewey + DEWEY_SEPARATOR
                    + (dewey_cache[ordinal] if ordinal < cache_size
                       else dewey_component(ordinal)),
                ),
                None,
            )
        elif kind is kind_text_event:
            if not stack:
                raise StorageError("text event at document level")
            parent = stack[-1]
            pre_counter += 1
            post_counter += 1
            ordinal = parent.next_ordinal
            parent.next_ordinal = ordinal + 1
            parent.size += 1
            parent.kid_count += 1
            if parent.all_text:
                parent.text_parts.append(ev_value or "")
            node_count += 1
            add(
                NodeRecord(
                    pre_counter,
                    post_counter,
                    0,
                    parent.level + 1,
                    text_kind,
                    None,
                    ev_value,
                    parent.pre,
                    ordinal,
                    parent.dewey + DEWEY_SEPARATOR
                    + (dewey_cache[ordinal] if ordinal < cache_size
                       else dewey_component(ordinal)),
                ),
                None,
            )
        elif kind in (
            EventKind.COMMENT, EventKind.PROCESSING_INSTRUCTION
        ):
            pre_counter += 1
            post_counter += 1
            node_kind = (
                comment_kind if kind is EventKind.COMMENT else pi_kind
            )
            if stack:
                parent = stack[-1]
                ordinal = parent.next_ordinal
                parent.next_ordinal += 1
                parent.size += 1
                parent.kid_count += 1
                if parent.all_text:
                    parent.all_text = False
                    parent.text_parts.clear()
                level = parent.level + 1
                parent_pre = parent.pre
                dewey = (
                    parent.dewey + DEWEY_SEPARATOR
                    + dewey_component(ordinal)
                )
            else:
                ordinal = doc_ordinal
                doc_ordinal += 1
                level = 1
                parent_pre = 0
                dewey = dewey_component(ordinal)
            node_count += 1
            add(
                NodeRecord(
                    pre_counter,
                    post_counter,
                    0,
                    level,
                    node_kind,
                    ev_name if node_kind == pi_kind else None,
                    ev_value,
                    parent_pre,
                    ordinal,
                    dewey,
                ),
                None,
            )
        # START_DOCUMENT / END_DOCUMENT carry no stored node.
    if stack:
        raise StorageError(
            f"event stream ended with {len(stack)} open element(s)"
        )
    return node_count, root_tag


#: The rows no shredder wrote, worded once for both run walkers
#: (:func:`records_to_events`, :func:`write_records`) so that they
#: cannot drift in what they report.
_ROW_FAULTS = {
    "missing parent": "record {pre} references missing parent {parent_pre}",
    "beside root": (
        "record {pre} lies beside subtree root {root}, not under it"
    ),
    "late attribute": "attribute record {pre} outside a start tag",
    "kind": "cannot rebuild node of kind {kind}",
}


def _row_fault(fault, root, pre, parent_pre, kind) -> StorageError:
    """The :class:`~repro.errors.StorageError` a run walker raises for
    a row no shredder wrote (a key of :data:`_ROW_FAULTS`)."""
    return StorageError(_ROW_FAULTS[fault].format(
        root=root, pre=pre, parent_pre=parent_pre, kind=kind,
    ))


def _first_and_rest(rows):
    """``(first row, every row)`` of a run, or ``(None, ())`` for an
    empty one: a walker reads the run's holder off the first row."""
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        return None, ()
    return first, chain((first,), rows)


def records_to_events(rows):
    """Token stream of one run of stored rows — :func:`shred_into` in
    reverse, and the one place rows turn back into structure.

    *rows* are ``(root, pre, parent_pre, kind, name, value)`` tuples in
    document order, as :meth:`MappingScheme.fetch_records` /
    ``fetch_records_many`` produce them: either one subtree (``root`` is
    the ``pre`` of its first row) or a whole document (``root`` 0, its
    top-level nodes under ``parent_pre`` 0).  A stack of the open
    elements' ``pre`` ids replaces every per-node lookup: a row closes
    open elements until the innermost one is its parent.

    Rows no shredder wrote — a parent that is not an open element (never
    stored, or a leaf), a second node beside a subtree's root, an
    attribute after its element's first child, an unknown kind — raise
    :class:`~repro.errors.StorageError`.  :func:`write_records` is the
    same walk writing text; the two reject the same rows alike.
    """
    from repro.xml.events import Event, EventKind

    first, rows = _first_and_rest(rows)
    if first is None:
        return
    # tuple.__new__ is Event's generated __new__ minus its Python frame
    # (the pull parser builds its events the same way).
    new, event = tuple.__new__, Event
    kind_start = EventKind.START_ELEMENT
    kind_end = EventKind.END_ELEMENT
    kind_attribute = EventKind.ATTRIBUTE
    kind_text_event = EventKind.TEXT
    element_kind = int(NodeKind.ELEMENT)
    attribute_kind = int(NodeKind.ATTRIBUTE)
    text_kind = int(NodeKind.TEXT)
    comment_kind = int(NodeKind.COMMENT)
    pi_kind = int(NodeKind.PROCESSING_INSTRUCTION)

    # open_pres[0] is whatever holds the run: the first row's parent
    # (the document for a whole-document run).
    outer = first[2]
    open_pres = [outer]
    open_names: list[str | None] = [None]
    in_start_tag = False
    for root, pre, parent_pre, kind, name, value in rows:
        while open_pres[-1] != parent_pre:
            if len(open_pres) == 1:
                raise _row_fault(
                    "missing parent", root, pre, parent_pre, kind
                )
            open_pres.pop()
            yield new(event, (kind_end, open_names.pop(), None))
            in_start_tag = False
        if parent_pre == outer and root and pre != root:
            raise _row_fault("beside root", root, pre, parent_pre, kind)
        if kind == element_kind:
            yield new(event, (kind_start, name, None))
            open_pres.append(pre)
            open_names.append(name)
            in_start_tag = True
        elif kind == attribute_kind:
            if not in_start_tag and (pre != root or parent_pre != outer):
                raise _row_fault(
                    "late attribute", root, pre, parent_pre, kind
                )
            yield new(event, (kind_attribute, name, value or ""))
        else:
            in_start_tag = False
            if kind == text_kind:
                yield new(event, (kind_text_event, None, value or ""))
            elif kind == comment_kind:
                yield new(event, (EventKind.COMMENT, None, value or ""))
            elif kind == pi_kind:
                yield new(
                    event,
                    (EventKind.PROCESSING_INSTRUCTION, name, value or ""),
                )
            else:
                raise _row_fault("kind", root, pre, parent_pre, kind)
    while len(open_names) > 1:
        yield new(event, (kind_end, open_names.pop(), None))


def write_records(rows) -> str:
    """XML text of one run of stored rows: :func:`records_to_events`
    and :func:`~repro.xml.serialize.write_events` in one loop, with no
    token in between.

    The walk is :func:`records_to_events`' — the same *rows*, the same
    stack of open ``pre`` ids, the same rows rejected with the same
    :class:`~repro.errors.StorageError` — and the text is
    ``write_events``' byte for byte: ``<a/>`` for a childless element,
    a lone attribute root as ``name="value"``, an empty run as ``""``.
    ``query_xml`` and ``reconstruct_xml`` publish through it.
    """
    first, rows = _first_and_rest(rows)
    if first is None:
        return ""
    element_kind = int(NodeKind.ELEMENT)
    attribute_kind = int(NodeKind.ATTRIBUTE)
    text_kind = int(NodeKind.TEXT)
    comment_kind = int(NodeKind.COMMENT)
    pi_kind = int(NodeKind.PROCESSING_INSTRUCTION)

    parts: list[str] = []
    append = parts.append
    outer = first[2]
    open_pres = [outer]
    open_names: list[str | None] = [None]
    in_start_tag = False  # the innermost start tag still lacks its '>'
    for root, pre, parent_pre, kind, name, value in rows:
        while open_pres[-1] != parent_pre:
            if len(open_pres) == 1:
                raise _row_fault(
                    "missing parent", root, pre, parent_pre, kind
                )
            open_pres.pop()
            tag = open_names.pop()
            append("/>" if in_start_tag else f"</{tag}>")
            in_start_tag = False
        if parent_pre == outer and root and pre != root:
            raise _row_fault("beside root", root, pre, parent_pre, kind)
        if kind == element_kind:
            append(f"><{name}" if in_start_tag else f"<{name}")
            open_pres.append(pre)
            open_names.append(name)
            in_start_tag = True
        elif kind == text_kind:
            if in_start_tag:
                append(">" + escape_text(value or ""))
                in_start_tag = False
            else:
                append(escape_text(value or ""))
        elif kind == attribute_kind:
            if in_start_tag:
                append(f' {name}="{escape_attribute(value or "")}"')
            elif pre != root or parent_pre != outer:
                raise _row_fault(
                    "late attribute", root, pre, parent_pre, kind
                )
            else:
                append(f'{name}="{escape_attribute(value or "")}"')
        else:
            if kind == comment_kind:
                text = f"<!--{value or ''}-->"
            elif kind == pi_kind:
                text = f"<?{name} {value}?>" if value else f"<?{name}?>"
            else:
                raise _row_fault("kind", root, pre, parent_pre, kind)
            if in_start_tag:
                append(">" + text)
                in_start_tag = False
            else:
                append(text)
    if in_start_tag:
        append("/>")
        open_names.pop()
    while len(open_names) > 1:
        append(f"</{open_names.pop()}>")
    return "".join(parts)
