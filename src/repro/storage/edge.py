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

Every step is one self-join (a child step on ``source = target``) in the
statement builder interval and Dewey use too; a descendant or ancestor
step needs the transitive closure, one recursive CTE seeded by the
steps before it, which is this mapping's published weakness and the
subject of experiment E4.  The mapping also records each document's
element label paths in ``edge_paths`` while it shreds, so
``query_pres`` can run a mid-path ``//`` as the concrete child chains
that occur instead (DESIGN §7).
"""

from __future__ import annotations

from repro.relational.schema import Column, INTEGER, Index, Table, TEXT
from repro.storage.base import (
    ROOTS,
    STREAM_BATCH,
    LabelPathCatalog,
    MappingScheme,
    PathDictionary,
    StreamInserter,
    label_paths_table,
    roots_param,
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
        Index("edge_content", "edge", ("doc_id", "label", "content"),
              where="content"),
        Index("edge_value", "edge", ("doc_id", "label", "value"),
              where="value"),
    ],
)

#: Every element label path of each stored document (DESIGN §7).
PATHS_TABLE = label_paths_table("edge_paths")


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


def label_name_sql(columns: str = "") -> str:
    """SQL inverse of :func:`edge_label`: the node name a row's label
    carries (NULL for text and comments), over the ``label``/``kind``
    columns prefixed *columns* (``"e."``).  Decoding in the engine
    leaves fetched rows needing no per-row Python."""
    return (
        f"CASE WHEN {columns}kind IN ({int(NodeKind.ELEMENT)}, "
        f"{int(NodeKind.ATTRIBUTE)}) THEN {columns}label "
        f"WHEN {columns}kind = {int(NodeKind.PROCESSING_INSTRUCTION)} "
        f"THEN substr({columns}label, {len(PI_LABEL) + 2}) END"
    )


def fetch_edge_rows(
    db, doc_id: int, pres: list[int] | None
) -> list[tuple]:
    """Publish rows ``(root, pre, parent_pre, kind, name, value)`` from
    the ``edge`` table: the subtrees rooted at *pres*, or with
    ``pres=None`` the whole document as one run under root 0.  (Binary
    has its own level-by-level fetch over its partitions.)

    No region encoding exists, so a subtree is collected by the
    parent→child closure — one recursive CTE seeded by all roots at
    once, each seed's tag propagated down its closure (a node under two
    nested roots comes back once per root).  Node ids stop being
    document order at the first insert; (parent, ordinal) never does, so
    the closure itself walks depth-first in ordinal order — the
    recursive arm's ORDER BY makes its queue a priority queue, deepest
    level first — and rows leave the engine already in document order.
    """
    if pres is None:
        root, seed, seed_params = "0", "source = 0", []
    else:
        root, seed, seed_params = (
            "target", f"target IN ({ROOTS})", [roots_param(pres)]
        )
    return db.query(
        f"""
        WITH RECURSIVE subtree(root, target, source, kind, name,
                               value, level, ordinal) AS (
          SELECT {root}, target, source, kind, {label_name_sql()},
                 value, 0, ordinal
          FROM edge WHERE doc_id = ? AND {seed}
          UNION ALL
          SELECT s.root, e.target, e.source, e.kind,
                 {label_name_sql("e.")}, e.value, s.level + 1,
                 e.ordinal
          FROM edge e JOIN subtree s ON e.source = s.target
          WHERE e.doc_id = ?
          ORDER BY 7 DESC, 8, 2
        )
        SELECT root, target, source, kind, name, value FROM subtree
        """,
        [doc_id, *seed_params, doc_id],
    )


class _EdgeStreamInserter(StreamInserter):
    """Constant-memory row sink: every completed node is one edge row,
    and every opened element's label path goes to the path dictionary
    the scheme's :class:`~repro.storage.base.LabelPathCatalog` keeps."""

    needs_enter = True

    def __init__(self, scheme, doc_id):
        super().__init__(scheme, doc_id)
        self._rows: list[tuple] = []
        self._count = 0
        self._paths = PathDictionary()
        self.enter = self._paths.enter

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
        return {
            EDGE_TABLE.name: self._count,
            PATHS_TABLE.name: self.scheme.label_paths.record(
                self.doc_id, self._paths
            ),
        }


class EdgeScheme(MappingScheme):
    """The single-edge-table mapping."""

    name = "edge"

    # A mid-path // expands over the recorded label paths, so a write
    # that adds a path must retire the plans cached before it.
    translation_depends_on_data = True

    def __init__(self, db) -> None:
        super().__init__(db)
        self.label_paths = LabelPathCatalog(self, PATHS_TABLE, "edge")

    def tables(self):
        return [EDGE_TABLE, PATHS_TABLE]

    def stream_inserter(self, doc_id):
        return _EdgeStreamInserter(self, doc_id)

    def fetch_records(self, doc_id: int) -> list[tuple]:
        return fetch_edge_rows(self.db, doc_id, None)

    def fetch_records_many(
        self, doc_id: int, pres: list[int]
    ) -> list[tuple]:
        return fetch_edge_rows(self.db, doc_id, pres)

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
