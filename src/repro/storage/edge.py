"""Edge mapping (Florescu & Kossmann, 1999) with inlined values.

The whole document becomes one *edge* relation, one row per node:

.. code-block:: text

    edge(doc_id, source, ordinal, label, kind, target, value, content)

``source``/``target`` are the parent's and the node's ``pre`` ids (source
0 for roots); ``label`` is the element tag or attribute name — text,
comment and PI nodes use the reserved labels ``#text``/``#comment``/
``#pi``.  ``value`` carries leaf data (attribute values, text) inline —
the paper's better-performing "edge with inlined values" variant; the
separate-value-table variant is exercised by the binary mapping instead.
``content`` caches text-only element content for value predicates.

A child step is one self-join on ``source = target``; a descendant step
needs the transitive closure (a recursive CTE here), which is this
mapping's published weakness and the subject of experiment E4.
"""

from __future__ import annotations

from repro.relational.schema import Column, INTEGER, Index, Table, TEXT
from repro.storage.base import (
    STREAM_BATCH,
    MappingScheme,
    StreamInserter,
    iter_batches,
)
from repro.storage.numbering import NodeRecord
from repro.xml.dom import NodeKind

# Reserved labels for non-element, non-attribute nodes.
TEXT_LABEL = "#text"
COMMENT_LABEL = "#comment"
PI_LABEL = "#pi"

_KIND_LABELS = {
    int(NodeKind.TEXT): TEXT_LABEL,
    int(NodeKind.COMMENT): COMMENT_LABEL,
    int(NodeKind.PROCESSING_INSTRUCTION): PI_LABEL,
}

EDGE_TABLE = Table(
    name="edge",
    columns=[
        Column("doc_id", INTEGER, nullable=False),
        Column("source", INTEGER, nullable=False),
        Column("ordinal", INTEGER, nullable=False),
        Column("label", TEXT, nullable=False),
        Column("kind", INTEGER, nullable=False),
        Column("target", INTEGER, nullable=False),
        Column("value", TEXT),
        Column("content", TEXT),
    ],
    primary_key=("doc_id", "target"),
    indexes=[
        Index("edge_source", "edge", ("doc_id", "source", "ordinal")),
        Index("edge_label", "edge", ("doc_id", "label", "source")),
        Index("edge_content", "edge", ("doc_id", "label", "content")),
        Index("edge_value", "edge", ("doc_id", "label", "value")),
    ],
)


def edge_label(record: NodeRecord) -> str:
    """The edge label of one stored node.

    Processing instructions keep their target inside the label
    (``#pi:target``) so reconstruction is lossless.
    """
    if record.kind in (int(NodeKind.ELEMENT), int(NodeKind.ATTRIBUTE)):
        return record.name or ""
    if record.kind == int(NodeKind.PROCESSING_INSTRUCTION):
        return f"{PI_LABEL}:{record.name}"
    return _KIND_LABELS[record.kind]


def label_to_name(label: str, kind: int) -> str | None:
    """Invert :func:`edge_label` back to the node's name."""
    if kind in (int(NodeKind.ELEMENT), int(NodeKind.ATTRIBUTE)):
        return label
    if kind == int(NodeKind.PROCESSING_INSTRUCTION):
        return label.split(":", 1)[1] if ":" in label else label
    return None


def order_edge_rows(
    rows: list[tuple], root_pre: int | None
) -> list[NodeRecord]:
    """Turn raw edge rows into records in *document* order.

    Node ids equal document order only until the first update; after
    inserts the true order is (parent, ordinal), so the rows are sorted
    by a DFS over the parent/ordinal structure — correct in both states.
    """
    children: dict[int, list[tuple]] = {}
    for row in rows:
        target, source, ordinal, label, kind, value = row
        children.setdefault(source, []).append(row)
    for siblings in children.values():
        siblings.sort(key=lambda row: (row[2], row[0]))  # (ordinal, id)
    records: list[NodeRecord] = []
    if root_pre is not None:
        roots = [row for row in rows if row[0] == root_pre]
    else:
        roots = children.get(0, [])
    stack = list(reversed(roots))
    while stack:
        target, source, ordinal, label, kind, value = stack.pop()
        records.append(
            NodeRecord(
                pre=target,
                post=0,
                size=0,
                level=0,
                kind=kind,
                name=label_to_name(label, kind),
                value=value,
                parent_pre=source,
                ordinal=ordinal,
                dewey="",
            )
        )
        stack.extend(reversed(children.get(target, [])))
    return records


def fetch_edge_subtrees(
    db, relation: str, doc_id: int, pres: list[int]
) -> dict[int, list[NodeRecord]]:
    """Batched subtree fetch over an edge-shaped *relation* (the ``edge``
    table, or binary's ``binary_edges`` view).

    One recursive CTE per batch, seeded by *all* roots at once; the seed
    tags each row with its root and the recursive arm propagates the tag,
    so the result groups per root without per-root round-trips.  A record
    under two nested roots comes back once per root — exactly what
    per-root fetches would return.
    """
    groups: dict[int, list[NodeRecord]] = {}
    for batch in iter_batches(pres):
        marks = ", ".join("?" for _ in batch)
        rows = db.query(
            f"""
            WITH RECURSIVE subtree(root, target, source, ordinal, label,
                                   kind, value) AS (
              SELECT target, target, source, ordinal, label, kind, value
              FROM {relation} WHERE doc_id = ? AND target IN ({marks})
              UNION ALL
              SELECT s.root, e.target, e.source, e.ordinal, e.label,
                     e.kind, e.value
              FROM {relation} e JOIN subtree s ON e.source = s.target
              WHERE e.doc_id = ?
            )
            SELECT root, target, source, ordinal, label, kind, value
            FROM subtree ORDER BY root, target
            """,
            [doc_id, *batch, doc_id],
        )
        per_root: dict[int, list[tuple]] = {}
        for root, *edge_row in rows:
            per_root.setdefault(root, []).append(tuple(edge_row))
        for root, edge_rows in per_root.items():
            groups[root] = order_edge_rows(edge_rows, root)
    return groups


class _EdgeStreamInserter(StreamInserter):
    """Constant-memory row sink: every completed node is one edge row."""

    def __init__(self, scheme, doc_id):
        super().__init__(scheme, doc_id)
        self._rows: list[tuple] = []
        self._count = 0

    def add(self, r, content):
        self._rows.append(
            (self.doc_id, r.parent_pre, r.ordinal, edge_label(r),
             r.kind, r.pre, r.value, content)
        )
        if len(self._rows) >= STREAM_BATCH:
            self._flush()

    def _flush(self):
        self.scheme.db.insert_rows(EDGE_TABLE, self._rows)
        self._count += len(self._rows)
        self._rows.clear()

    def finish(self):
        self._flush()
        return {EDGE_TABLE.name: self._count}


class EdgeScheme(MappingScheme):
    """The single-edge-table mapping."""

    name = "edge"

    def tables(self):
        return [EDGE_TABLE]

    def stream_inserter(self, doc_id):
        return _EdgeStreamInserter(self, doc_id)

    def fetch_records(
        self, doc_id: int, root_pre: int | None = None
    ) -> list[NodeRecord]:
        if root_pre is None:
            rows = self.db.query(
                "SELECT target, source, ordinal, label, kind, value "
                "FROM edge WHERE doc_id = ? ORDER BY target",
                (doc_id,),
            )
        else:
            # No region encoding: the subtree must be collected by
            # repeated parent→child joins (a recursive CTE) — the
            # reconstruction cost experiment E6 measures exactly this.
            rows = self.db.query(
                """
                WITH RECURSIVE subtree(target, source, ordinal, label,
                                       kind, value) AS (
                  SELECT target, source, ordinal, label, kind, value
                  FROM edge WHERE doc_id = ? AND target = ?
                  UNION ALL
                  SELECT e.target, e.source, e.ordinal, e.label, e.kind,
                         e.value
                  FROM edge e JOIN subtree s ON e.source = s.target
                  WHERE e.doc_id = ?
                )
                SELECT * FROM subtree ORDER BY target
                """,
                (doc_id, root_pre, doc_id),
            )
        return order_edge_rows(rows, root_pre)

    def fetch_records_many(
        self, doc_id: int, pres: list[int]
    ) -> dict[int, list[NodeRecord]]:
        return fetch_edge_subtrees(self.db, "edge", doc_id, pres)

    def _delete_rows(self, doc_id: int) -> None:
        self.db.execute("DELETE FROM edge WHERE doc_id = ?", (doc_id,))

    def _audit_document(self, doc_id, record, report, records) -> None:
        rows = self.db.query(
            "SELECT source, target FROM edge WHERE doc_id = ?", (doc_id,)
        )
        audit_edge_structure(rows, report)

    def translator(self):
        from repro.query.translate_edge import EdgeTranslator

        return EdgeTranslator(self)


def audit_edge_structure(
    rows: list[tuple[int, int]], report
) -> None:
    """Shared edge/binary invariant: the (source → target) graph is a
    forest rooted at source 0 — connected (every row reachable from 0)
    and therefore acyclic, since target ids are unique."""
    report.ran("edge-connected")
    children: dict[int, list[int]] = {}
    targets = set()
    for source, target in rows:
        children.setdefault(source, []).append(target)
        targets.add(target)
    reached: set[int] = set()
    stack = list(children.get(0, []))
    while stack:
        node = stack.pop()
        if node in reached:
            continue
        reached.add(node)
        stack.extend(children.get(node, []))
    stranded = targets - reached
    if stranded:
        report.add(
            "edge-connected",
            f"{len(stranded)} row(s) unreachable from the document "
            f"root (cycle or dangling source): "
            f"{sorted(stranded)[:10]}",
        )
