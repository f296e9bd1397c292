"""Subtree insertion and deletion per storage scheme (experiment E7).

The published update trade-off this module reproduces:

* **edge/binary** — an insert touches the new rows plus one ordinal bump
  per *following sibling* (their subtrees are untouched);
* **dewey** — an insert relabels the following siblings' *subtrees*
  (prefix rewrite), still local to one family;
* **interval** — an insert renumbers **every node after the insertion
  point** in the whole document plus all ancestor sizes — the global
  cost that makes the region encoding read-optimized.

Each operation returns :class:`UpdateStats` with the exact row counts,
which is what the benchmark reports (wall-clock confirms the same
ordering).  Node ids (``pre``) remain unique but are no longer the
document-order index after an insert — except under the interval scheme,
which must maintain that property and pays for it.

This module decides *where* a subtree goes, never what a row looks
like: an insert numbers the fragment through the ingest lane
(:func:`~repro.storage.numbering.shred_into`), opens a gap the way the
scheme's order encoding demands, moves the numbered records into it
(:func:`_relocate`) and hands them to the scheme's own
:meth:`~repro.storage.base.MappingScheme.stream_inserter`.  What differs
per scheme is stated once, in :func:`_shape`.  Edge and binary also
graft the fragment's label paths into their
:class:`~repro.storage.base.LabelPathCatalog` at the parent's path;
a delete leaves the catalog alone (it is a superset, DESIGN §7).

The xrel, universal and inlining mappings do not implement updates here:
xrel shares interval's renumbering story, the universal table would
rewrite entire row sets, and inlined columns require DTD-aware row
surgery; all three raise :class:`~repro.errors.UpdateError`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

from repro.errors import UpdateError
from repro.relational.schema import quote_identifier
from repro.storage.base import MappingScheme, PathDictionary
from repro.storage.binary import EDGES_VIEW, BinaryScheme
from repro.storage.dewey import DeweyScheme, prefix_range
from repro.storage.edge import EdgeScheme
from repro.storage.interval import IntervalScheme
from repro.storage.numbering import (
    DEWEY_SEPARATOR,
    NodeRecord,
    dewey_component,
    dewey_label_fault,
    shred_into,
)
from repro.xml.dom import Element, NodeKind
from repro.xml.events import stream_events


#: Scheme classes with a subtree insert/delete implementation; the rest
#: raise :class:`~repro.errors.UpdateError` (see the module docstring
#: for why).
UPDATABLE_SCHEMES = (BinaryScheme, EdgeScheme, IntervalScheme, DeweyScheme)

_ATTRIBUTE = int(NodeKind.ATTRIBUTE)


def supports_updates(scheme: MappingScheme) -> bool:
    """True when *scheme* implements subtree insert/delete — callers
    (e.g. the sharded store's write routing) check this up front
    instead of duplicating the class list."""
    return isinstance(scheme, UPDATABLE_SCHEMES)


@dataclass(frozen=True)
class UpdateStats:
    """Cost accounting of one update."""

    rows_inserted: int
    rows_updated: int
    rows_deleted: int = 0

    @property
    def rows_touched(self) -> int:
        return self.rows_inserted + self.rows_updated + self.rows_deleted


class _Shape(NamedTuple):
    """What an update has to know about one scheme's rows."""

    relation: str             # where it reads (binary: the union view)
    tables: tuple[str, ...]   # where it writes (binary: every partition)
    node: str                 # column holding a row's own id
    parent: str               # column referencing the row's parent ...
    key: str                  # ... by this column of the parent's row
    level: str                # SQL of a row's depth (0: not stored)
    size: str                 # SQL of its subtree size (0: not stored)
    #: ``open_gap(db, shape, doc_id, parent, following, ordinal, size)``
    #: makes room under *parent* for *size* new nodes, at *ordinal*,
    #: before the siblings *following*; returns ``(offset, label,
    #: rows_updated)`` for :func:`_relocate`.
    open_gap: Callable
    #: ``cut(db, shape, doc_id, node)`` removes *node*'s subtree;
    #: returns ``(rows_updated, rows_deleted)``.
    cut: Callable


class _Node(NamedTuple):
    """One stored node as :func:`_node` reads it."""

    pre: int
    kind: int
    parent: int | str | None  # the parent's key; 0/None at document level
    key: int | str            # what this node's children reference
    level: int
    size: int


def _shape(scheme: MappingScheme) -> _Shape:
    if isinstance(scheme, EdgeScheme):
        return _Shape("edge", ("edge",), "target", "source", "target",
                      "0", "0", _open_edge_gap, _cut_edges)
    if isinstance(scheme, BinaryScheme):
        # Read through the view, write to the partitions.  The list is
        # taken before the insert adds partitions of its own: those
        # hold nothing but the new rows.
        return _Shape(EDGES_VIEW, tuple(scheme.partitions().values()),
                      "target", "source", "target", "0", "0",
                      _open_edge_gap, _cut_edges)
    if isinstance(scheme, IntervalScheme):
        return _Shape("accel", ("accel",), "pre", "parent_pre", "pre",
                      "level", "size", _open_interval_gap, _cut_interval)
    if isinstance(scheme, DeweyScheme):
        return _Shape("dewey", ("dewey",), "pre", "parent_label", "label",
                      "depth", "0", _open_dewey_gap, _cut_dewey)
    raise UpdateError(f"scheme '{scheme.name}' does not implement updates")


def insert_subtree(
    scheme: MappingScheme,
    doc_id: int,
    parent_pre: int,
    fragment: Element,
    index: int = 0,
) -> UpdateStats:
    """Insert *fragment* as child number *index* (0-based, counted among
    the parent's non-attribute children) of element *parent_pre*."""
    scheme.catalog.get(doc_id)
    shape = _shape(scheme)
    if fragment.parent is not None:
        raise UpdateError("fragment must be detached")
    numbered: list[tuple[NodeRecord, str | None]] = []
    # The fragment's own label paths, for a scheme that records them;
    # they are grafted at the parent's path once the parent is known.
    paths = PathDictionary() if scheme.label_paths is not None else None
    shred_into(
        stream_events(fragment),
        lambda record, content: numbered.append((record, content)),
        paths.enter if paths is not None else None,
    )
    db = scheme.db
    # One transaction covers the checks, the row surgery, the parent's
    # cached content refresh AND the catalog's node count: a fault
    # anywhere leaves the document exactly as it was.
    with db.transaction():
        parent = _node(db, shape, doc_id, parent_pre)
        # Before any row is written: children of a text or attribute
        # node would be rows no reader can reach.
        if parent.kind != NodeKind.ELEMENT:
            raise UpdateError(
                f"node {parent_pre} in document {doc_id} is not an element"
            )
        # (kind, id, ordinal, key) per child.
        children = _children(
            db, shape, doc_id, parent.key,
            f"{shape.node}, ordinal, {shape.key}",
        )
        siblings = [row for row in children if row[0] != _ATTRIBUTE]
        ordinal = _insertion_ordinal(
            siblings, len(children) - len(siblings), index
        )
        offset, label, updated = shape.open_gap(
            db, shape, doc_id, parent, siblings[index:], ordinal,
            len(numbered),
        )
        inserter = scheme.stream_inserter(doc_id)
        for record, content in numbered:
            inserter.add(
                _relocate(record, offset, parent, ordinal, label), content
            )
        inserter.finish()
        if paths is not None:
            scheme.label_paths.graft(doc_id, parent.pre, paths)
        _refresh_content(db, shape, doc_id, parent.key)
        record = scheme.catalog.get(doc_id)
        scheme.catalog.update_node_count(
            doc_id, record.node_count + len(numbered)
        )
    if scheme.translation_depends_on_data:
        # e.g. binary's inserter may have added a partition, changing
        # what label-selective steps compile to, or the fragment a
        # label path a cached // expansion lacks.
        scheme.invalidate_plans()
    return UpdateStats(rows_inserted=len(numbered), rows_updated=updated)


def delete_subtree(
    scheme: MappingScheme, doc_id: int, pre: int
) -> UpdateStats:
    """Delete the subtree rooted at node *pre*."""
    scheme.catalog.get(doc_id)
    shape = _shape(scheme)
    db = scheme.db
    # Same atomicity contract as insert_subtree: rows, cached content
    # and catalog count move together or not at all.
    with db.transaction():
        node = _node(db, shape, doc_id, pre)
        updated, deleted = shape.cut(db, shape, doc_id, node)
        if node.parent:
            _refresh_content(db, shape, doc_id, node.parent)
        record = scheme.catalog.get(doc_id)
        scheme.catalog.update_node_count(
            doc_id, max(0, record.node_count - deleted)
        )
    if scheme.translation_depends_on_data:
        scheme.invalidate_plans()
    return UpdateStats(0, updated, rows_deleted=deleted)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _node(db, shape: _Shape, doc_id: int, pre: int) -> _Node:
    row = db.query_one(
        f"SELECT kind, {shape.parent}, {shape.key}, {shape.level}, "
        f"{shape.size} FROM {shape.relation} "
        f"WHERE doc_id = ? AND {shape.node} = ?",
        (doc_id, pre),
    )
    if row is None:
        raise UpdateError(f"no node {pre} in document {doc_id}")
    return _Node(pre, *row)


def _children(
    db, shape: _Shape, doc_id: int, key, columns: str
) -> list[tuple]:
    """``(kind, *columns)`` of the children of the node with *key*,
    attributes included, in sibling order."""
    return db.query(
        f"SELECT kind, {columns} FROM {shape.relation} "
        f"WHERE doc_id = ? AND {shape.parent} = ? ORDER BY ordinal",
        (doc_id, key),
    )


def _refresh_content(db, shape: _Shape, doc_id: int, key) -> None:
    """Recompute the cached text-only ``content`` of the node with
    *key* after an update — inserting an element child invalidates it,
    deleting the last element child may restore it."""
    kids = [
        row for row in _children(db, shape, doc_id, key, "value")
        if row[0] != _ATTRIBUTE
    ]
    if all(kind == NodeKind.TEXT for kind, __ in kids):
        content = "".join(value or "" for __, value in kids)
    else:
        content = None  # mixed or element content
    for table in shape.tables:
        db.execute(
            f"UPDATE {quote_identifier(table)} SET content = ? "
            f"WHERE doc_id = ? AND {shape.key} = ?",
            (content, doc_id, key),
        )


def _insertion_ordinal(
    siblings: list[tuple], attr_count: int, index: int
) -> int:
    """Ordinal for the new child at *index* among element/text children."""
    if index < 0 or index > len(siblings):
        raise UpdateError(
            f"index {index} out of range (parent has {len(siblings)} "
            "children)"
        )
    if index < len(siblings):
        return siblings[index][2]
    if siblings:
        return siblings[-1][2] + 1
    return attr_count + 1


def _relocate(
    record: NodeRecord, offset: int, parent: _Node, ordinal: int,
    label: str | None,
) -> NodeRecord:
    """Point one record of a fragment numbered from 1 at its gap: ids
    move by *offset*, levels hang below *parent*, and the fragment's
    root (the one record with no parent) takes *parent* and *ordinal*.
    *label* is the root's new Dewey label (None where no label is
    stored): it replaces the root's own component, the first of every
    label, whatever its width.
    """
    is_root = not record.parent_pre
    if label is not None:
        __, separator, below = record.dewey.partition(DEWEY_SEPARATOR)
        label += separator + below
    return record._replace(
        pre=record.pre + offset,
        level=record.level + parent.level,
        parent_pre=parent.pre if is_root else record.parent_pre + offset,
        ordinal=ordinal if is_root else record.ordinal,
        dewey=record.dewey if label is None else label,
    )


def _fresh_ids(db, shape: _Shape, doc_id: int) -> int:
    """Offset that moves a fragment's ids past every id of the
    document: ids are per document, so no other document's rows are
    read, and each table answers from its ``(doc_id, id)`` key."""
    return max(
        db.scalar(
            f"SELECT MAX({shape.node}) FROM {quote_identifier(table)} "
            "WHERE doc_id = ?",
            (doc_id,),
        ) or 0
        for table in shape.tables
    )


def _bump_ordinals(
    db, shape: _Shape, doc_id: int, parent_pre: int, ordinal: int
) -> int:
    """Move the siblings at *ordinal* and after one slot up."""
    return sum(
        db.execute(
            f"UPDATE {quote_identifier(table)} SET ordinal = ordinal + 1 "
            f"WHERE doc_id = ? AND {shape.parent} = ? AND ordinal >= ?",
            (doc_id, parent_pre, ordinal),
        ).rowcount
        for table in shape.tables
    )


# ---------------------------------------------------------------------------
# Edge / binary
# ---------------------------------------------------------------------------


def _open_edge_gap(db, shape, doc_id, parent, following, ordinal, size):
    updated = _bump_ordinals(db, shape, doc_id, parent.pre, ordinal)
    return _fresh_ids(db, shape, doc_id), None, updated


def _cut_edges(db, shape, doc_id, node):
    # The closure is read in full before any table is swept: with
    # binary, a parent's partition may be emptied before its
    # children's, and a closure taken then would stop at the hole.
    doomed = [
        row[0]
        for row in db.query(
            f"""
            WITH RECURSIVE doomed(id) AS (
              SELECT ?
              UNION ALL
              SELECT e.target FROM {shape.relation} e
              JOIN doomed d ON e.source = d.id WHERE e.doc_id = ?
            )
            SELECT id FROM doomed
            """,
            (node.pre, doc_id),
        )
    ]
    marks = ", ".join("?" for _ in doomed)
    deleted = sum(
        db.execute(
            f"DELETE FROM {quote_identifier(table)} "
            f"WHERE doc_id = ? AND target IN ({marks})",
            [doc_id, *doomed],
        ).rowcount
        for table in shape.tables
    )
    return 0, deleted


# ---------------------------------------------------------------------------
# Interval
# ---------------------------------------------------------------------------


def _shift_interval(db, doc_id: int, start: int, by: int, parent) -> int:
    """Renumber for *by* nodes arriving (``by > 0``) or gone (``< 0``)
    at position *start* under node *parent*: every node from *start* on
    moves, and every ancestor's region resizes — the scheme's published
    update cost, paid here and nowhere else.  Returns rows updated."""
    # Two passes through negative values: a single in-place += would
    # transiently collide with the (doc_id, pre) primary key.
    updated = db.execute(
        "UPDATE accel SET pre = -(pre + ?) WHERE doc_id = ? AND pre >= ?",
        (by, doc_id, start),
    ).rowcount
    db.execute(
        "UPDATE accel SET pre = -pre WHERE doc_id = ? AND pre < 0",
        (doc_id,),
    )
    updated += db.execute(
        "UPDATE accel SET parent_pre = parent_pre + ? "
        "WHERE doc_id = ? AND parent_pre >= ?",
        (by, doc_id, start),
    ).rowcount
    # The WITH sits inside the IN: a statement that *leads* with it
    # reports rowcount -1.
    updated += db.execute(
        """
        UPDATE accel SET size = size + ? WHERE doc_id = ? AND pre IN (
          WITH RECURSIVE up(pre) AS (
            SELECT ?
            UNION ALL
            SELECT a.parent_pre FROM accel a JOIN up ON a.pre = up.pre
            WHERE a.doc_id = ?
          )
          SELECT pre FROM up
        )
        """,
        (by, doc_id, parent, doc_id),
    ).rowcount
    return updated


def _open_interval_gap(db, shape, doc_id, parent, following, ordinal, size):
    # The new subtree takes the next sibling's place, or — appended —
    # the position just past the parent's region.
    gap = following[0][1] if following else parent.pre + parent.size + 1
    updated = _shift_interval(db, doc_id, gap, size, parent.pre)
    updated += _bump_ordinals(db, shape, doc_id, parent.pre, ordinal)
    return gap - 1, None, updated


def _cut_interval(db, shape, doc_id, node):
    end = node.pre + node.size
    deleted = db.execute(
        "DELETE FROM accel WHERE doc_id = ? AND pre >= ? AND pre <= ?",
        (doc_id, node.pre, end),
    ).rowcount
    # The encoding's regions are *contiguous* pre ranges — a gap
    # would put surviving descendants outside their ancestors'
    # ``(pre, pre+size]`` windows — so deletion renumbers everything
    # after the hole, mirroring insertion's global cost (the
    # published write-amplification of the interval mapping).
    return _shift_interval(db, doc_id, end + 1, -deleted, node.parent), deleted


# ---------------------------------------------------------------------------
# Dewey
# ---------------------------------------------------------------------------


def _open_dewey_gap(db, shape, doc_id, parent, following, ordinal, size):
    # A document shredded with another label form would take new
    # labels that do not sort among its old ones.
    fault = dewey_label_fault(parent.key)
    if fault is not None:
        raise UpdateError(
            f"dewey label {parent.key!r} of node {parent.pre} in document "
            f"{doc_id} is not in the current label form ({fault}); "
            "store the document again before updating it"
        )
    # Relabel following siblings' subtrees, last first (labels are a
    # primary key, so shifts must not collide mid-flight).
    updated = 0
    for __, __, old_ordinal, label in reversed(following):
        updated += _relabel_subtree(
            db, doc_id, label,
            parent.key + DEWEY_SEPARATOR + dewey_component(old_ordinal + 1),
            old_ordinal + 1,
        )
    return (
        _fresh_ids(db, shape, doc_id),
        parent.key + DEWEY_SEPARATOR + dewey_component(ordinal),
        updated,
    )


def _relabel_subtree(db, doc_id, old_label, new_label, new_ordinal) -> int:
    """Move a subtree from *old_label* to *new_label*; returns rows."""
    lo, hi = prefix_range(old_label)
    descendants = db.execute(
        "UPDATE dewey SET "
        "label = ? || SUBSTR(label, ?), "
        "parent_label = CASE WHEN parent_label = ? THEN ? "
        "ELSE ? || SUBSTR(parent_label, ?) END "
        "WHERE doc_id = ? AND label > ? AND label < ?",
        (
            new_label, len(old_label) + 1,
            old_label, new_label,
            new_label, len(old_label) + 1,
            doc_id, lo, hi,
        ),
    ).rowcount
    db.execute(
        "UPDATE dewey SET label = ?, ordinal = ? "
        "WHERE doc_id = ? AND label = ?",
        (new_label, new_ordinal, doc_id, old_label),
    )
    return descendants + 1


def _cut_dewey(db, shape, doc_id, node):
    lo, hi = prefix_range(node.key)
    deleted = db.execute(
        "DELETE FROM dewey WHERE doc_id = ? "
        "AND (label = ? OR (label > ? AND label < ?))",
        (doc_id, node.key, lo, hi),
    ).rowcount
    return 0, deleted
