"""Interval (pre/size/level) mapping — the "XPath accelerator".

One relation holds every node with its region encoding (Grust 2002/2004;
also the XASR table of Kanne & Moerkotte and the tree encoding on tutorial
slide 132):

.. code-block:: text

    accel(doc_id, pre, size, level, kind, name, value, content,
          parent_pre, ordinal)

Every XPath axis is a *range predicate* over a node's region
``[pre, pre+size]`` — e.g.
``descendant(v) = { u : pre(u) > pre(v) AND pre(u) <= pre(v)+size(v) }`` —
so a k-step path is k self-joins with range conditions instead of the edge
mapping's transitive closures.  (Grust's plane is (pre, post); ``size``
states the same windows and is what the translator reads, so ``post`` is
not stored.)  ``content`` caches the concatenated text
of text-only elements, giving value predicates a single-column compare.
"""

from __future__ import annotations

from repro.relational.schema import Column, INTEGER, Index, Table, TEXT
from repro.storage.base import (
    ROOTS,
    STREAM_BATCH,
    MappingScheme,
    StreamInserter,
    roots_param,
)

ACCEL_TABLE = Table(
    name="accel",
    columns=[
        Column("doc_id", INTEGER, nullable=False),
        Column("pre", INTEGER, nullable=False),
        Column("size", INTEGER, nullable=False),
        Column("level", INTEGER, nullable=False),
        Column("kind", INTEGER, nullable=False),
        Column("name", TEXT),
        Column("value", TEXT),
        Column("content", TEXT),
        Column("parent_pre", INTEGER, nullable=False),
        Column("ordinal", INTEGER, nullable=False),
    ],
    primary_key=("doc_id", "pre"),
    indexes=[
        Index("accel_name", "accel", ("doc_id", "name", "pre"),
              where="name"),
        Index("accel_parent", "accel", ("doc_id", "parent_pre")),
        Index("accel_content", "accel", ("doc_id", "name", "content"),
              where="content"),
        Index("accel_value", "accel", ("doc_id", "name", "value"),
              where="value"),
    ],
)


class _IntervalStreamInserter(StreamInserter):
    """Constant-memory row sink: every completed node is one accel row."""

    def __init__(self, scheme, doc_id):
        super().__init__(scheme, doc_id)
        self._rows: list[tuple] = []
        self._count = 0

    def add(self, r, content):
        self._rows.append(
            (self.doc_id, r.pre, r.size, r.level, r.kind,
             r.name, r.value, content, r.parent_pre, r.ordinal)
        )
        if len(self._rows) >= STREAM_BATCH:
            self._flush()

    def _flush(self):
        self.scheme.db.insert_rows(ACCEL_TABLE, self._rows)
        self._count += len(self._rows)
        self._rows.clear()

    def finish(self):
        self._flush()
        return {ACCEL_TABLE.name: self._count}


class IntervalScheme(MappingScheme):
    """The pre/size/level region mapping."""

    name = "interval"

    def tables(self):
        return [ACCEL_TABLE]

    def stream_inserter(self, doc_id):
        return _IntervalStreamInserter(self, doc_id)

    def fetch_records(self, doc_id: int) -> list[tuple]:
        return self.db.query(
            "SELECT 0, pre, parent_pre, kind, name, value FROM accel "
            "WHERE doc_id = ? ORDER BY pre",
            (doc_id,),
        )

    def fetch_records_many(
        self, doc_id: int, pres: list[int]
    ) -> list[tuple]:
        # A subtree is a contiguous pre block, so each root row opens
        # one primary-key range scan, and the nested loop already
        # delivers (root, pre) order.
        return self.db.query(
            "SELECT r.pre, a.pre, a.parent_pre, a.kind, a.name, a.value "
            "FROM accel AS r JOIN accel AS a ON a.doc_id = r.doc_id "
            "AND a.pre >= r.pre AND a.pre <= r.pre + r.size "
            f"WHERE r.doc_id = ? AND r.pre IN ({ROOTS}) "
            "ORDER BY r.pre, a.pre",
            (doc_id, roots_param(pres)),
        )

    def _delete_rows(self, doc_id: int) -> None:
        self.db.execute("DELETE FROM accel WHERE doc_id = ?", (doc_id,))

    def _audit_document(self, doc_id, record, report, records) -> None:
        rows = self.db.query(
            "SELECT pre, size, level, parent_pre FROM accel "
            "WHERE doc_id = ? ORDER BY pre",
            (doc_id,),
        )
        by_pre = {pre: (size, level, parent_pre)
                  for pre, size, level, parent_pre in rows}
        report.ran("interval-bounds")
        report.ran("interval-containment")
        report.ran("interval-levels")
        for pre, size, level, parent_pre in rows:
            if size < 0 or level < 1:
                report.add(
                    "interval-bounds",
                    f"node {pre} has size={size}, level={level}",
                )
                continue
            if parent_pre == 0:
                continue
            parent = by_pre.get(parent_pre)
            if parent is None:
                continue  # flagged by the generic parents-resolve check
            p_size, p_level, __ = parent
            # A child's region must nest strictly inside its parent's:
            # parent_pre < pre and pre + size <= parent_pre + p_size.
            if not (parent_pre < pre and pre + size <= parent_pre + p_size):
                report.add(
                    "interval-containment",
                    f"region [{pre}, {pre + size}] of node {pre} is not "
                    f"contained in parent [{parent_pre}, "
                    f"{parent_pre + p_size}]",
                )
            if level != p_level + 1:
                report.add(
                    "interval-levels",
                    f"node {pre} has level {level}; its parent "
                    f"{parent_pre} has level {p_level}",
                )
        # Sibling regions must not partially overlap (well-nestedness):
        # walking in pre order with a stack of open regions, every new
        # region either nests in the top or starts after it ends.
        report.ran("interval-nesting")
        stack: list[tuple[int, int]] = []  # (pre, end)
        for pre, size, level, parent_pre in rows:
            end = pre + size
            while stack and stack[-1][1] < pre:
                stack.pop()
            if stack and end > stack[-1][1]:
                report.add(
                    "interval-nesting",
                    f"region [{pre}, {end}] crosses open region "
                    f"[{stack[-1][0]}, {stack[-1][1]}]",
                )
                continue
            stack.append((pre, end))

    def translator(self):
        from repro.query.translate_interval import IntervalTranslator

        return IntervalTranslator(self)
