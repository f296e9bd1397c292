"""Independent numbering oracle for the streaming shredder (test-only).

:func:`number_document` is the recursive DOM walk the library used
before :func:`repro.storage.numbering.shred_into` numbered the token
stream; :func:`element_content` is the second pass over its records that
computed the text-only-element ``content`` cache.  Neither shares code
with ``shred_into``, so the suites compare the two record for record
(``tests/test_streaming.py``, ``tests/test_property.py``) and check the
numbering invariants on the walk's output (``tests/test_numbering.py``).
"""

from repro.storage.numbering import (
    DEWEY_SEPARATOR,
    NodeRecord,
    dewey_component,
)
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


def number_document(document: Document) -> list[NodeRecord]:
    """Compute :class:`NodeRecord` facts for every stored node, in
    document (pre) order."""
    document.assign_order()
    records: list[NodeRecord] = []
    post_counter = 0

    def visit(
        node: Node, level: int, parent_pre: int, ordinal: int, dewey: str
    ) -> int:
        """Append records for *node*'s subtree; return its stored size."""
        nonlocal post_counter
        pre = node.order_key
        size = 0
        child_records_start = len(records)
        records.append(None)  # placeholder; filled after children
        if isinstance(node, Element):
            next_ordinal = 1
            for attr in node.attributes:
                size += visit(attr, level + 1, pre, next_ordinal,
                              dewey + DEWEY_SEPARATOR
                              + dewey_component(next_ordinal))
                next_ordinal += 1
            for child in node.children:
                size += visit(child, level + 1, pre, next_ordinal,
                              dewey + DEWEY_SEPARATOR
                              + dewey_component(next_ordinal))
                next_ordinal += 1
        post_counter += 1
        records[child_records_start] = NodeRecord(
            pre=pre,
            post=post_counter,
            size=size,
            level=level,
            kind=int(node.kind),
            name=_node_name(node),
            value=_node_value(node),
            parent_pre=parent_pre,
            ordinal=ordinal,
            dewey=dewey,
        )
        return size + 1

    ordinal = 1
    for child in document.children:
        visit(child, 1, 0, ordinal, dewey_component(ordinal))
        ordinal += 1
    return records


def _node_name(node: Node) -> str | None:
    if isinstance(node, Element):
        return node.tag
    if isinstance(node, Attribute):
        return node.name
    if isinstance(node, ProcessingInstruction):
        return node.target
    return None


def _node_value(node: Node) -> str | None:
    if isinstance(node, Attribute):
        return node.value
    if isinstance(node, (Text, Comment)):
        return node.data
    if isinstance(node, ProcessingInstruction):
        return node.data
    return None


def element_content(
    records: list[NodeRecord],
) -> dict[int, str]:
    """Map element pre → concatenated text, for *text-only* elements.

    An element whose non-attribute children are exclusively text nodes gets
    its concatenated text cached; every scheme uses this for single-column
    value predicates (the "inlined value" idea of the edge paper).
    """
    children: dict[int, list[NodeRecord]] = {}
    for record in records:
        if record.kind != NodeKind.ATTRIBUTE:
            children.setdefault(record.parent_pre, []).append(record)
    contents: dict[int, str] = {}
    for record in records:
        if record.kind != NodeKind.ELEMENT:
            continue
        kids = children.get(record.pre, [])
        if kids and all(k.kind == NodeKind.TEXT for k in kids):
            contents[record.pre] = "".join(k.value or "" for k in kids)
        elif not kids:
            contents[record.pre] = ""
    return contents
