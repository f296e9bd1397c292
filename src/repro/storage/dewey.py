"""Dewey-order mapping (Tatarinov et al., SIGMOD 2002).

Every node is labelled with the path of sibling ordinals from the root
("1.3.12"), each component stored as its digit count then its digits
("11.13.212", :func:`~repro.storage.numbering.dewey_component`), so
that

* lexicographic order on labels  ==  document order, and
* label prefix-of               ==  ancestor-of.

.. code-block:: text

    dewey(doc_id, label, parent_label, depth, kind, name, value, content,
          pre, ordinal)

A child step is an equality join on ``parent_label``; a descendant step is
an *index-friendly prefix scan* (``label > p AND label < p || ';'`` — the
standard string-range trick, since ``'.' < ';'`` in ASCII).  Updates only
relabel the inserted node's following siblings' subtrees, not the whole
document — the property experiment E7 measures against the interval
scheme's full renumbering.
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
from repro.storage.numbering import (
    DEWEY_SEPARATOR,
    dewey_label_fault,
    dewey_parent,
)

# The smallest character strictly greater than the separator '.' — used to
# close prefix ranges: descendants of label p are in (p + '.', p + '/').
PREFIX_RANGE_END = chr(ord(DEWEY_SEPARATOR) + 1)

DEWEY_TABLE = Table(
    name="dewey",
    columns=[
        Column("doc_id", INTEGER, nullable=False),
        Column("label", TEXT, nullable=False),
        Column("parent_label", TEXT),
        Column("depth", INTEGER, nullable=False),
        Column("kind", INTEGER, nullable=False),
        Column("name", TEXT),
        Column("value", TEXT),
        Column("content", TEXT),
        Column("pre", INTEGER, nullable=False),
        Column("ordinal", INTEGER, nullable=False),
    ],
    primary_key=("doc_id", "label"),
    indexes=[
        Index("dewey_name", "dewey", ("doc_id", "name", "label"),
              where="name"),
        Index("dewey_parent", "dewey", ("doc_id", "parent_label")),
        Index("dewey_pre", "dewey", ("doc_id", "pre")),
        Index("dewey_value", "dewey", ("doc_id", "name", "value"),
              where="value"),
        Index("dewey_content", "dewey", ("doc_id", "name", "content"),
              where="content"),
    ],
)


def prefix_range(label: str) -> tuple[str, str]:
    """The (lo, hi) label range containing exactly the descendants of
    *label*: ``lo < descendant.label < hi``."""
    return label + DEWEY_SEPARATOR, label + PREFIX_RANGE_END


def _with_parents(rows: list[tuple]) -> list[tuple]:
    """Label-ordered ``(root, pre, depth, kind, name, value)`` rows →
    ``(root, pre, parent_pre, kind, name, value)``: in document order a
    node's parent is the latest node one level up (0 above a run's
    first row)."""
    open_at: dict[int, int] = {}
    out = []
    for root, pre, depth, kind, name, value in rows:
        if pre == root:
            open_at = {}
        out.append((root, pre, open_at.get(depth - 1, 0), kind, name, value))
        open_at[depth] = pre
    return out


class _DeweyStreamInserter(StreamInserter):
    """Constant-memory row sink: every completed node is one dewey row."""

    def __init__(self, scheme, doc_id):
        super().__init__(scheme, doc_id)
        self._rows: list[tuple] = []
        self._count = 0

    def add(self, r, content):
        self._rows.append(
            (self.doc_id, r.dewey, dewey_parent(r.dewey), r.level,
             r.kind, r.name, r.value, content, r.pre, r.ordinal)
        )
        if len(self._rows) >= STREAM_BATCH:
            self._flush()

    def _flush(self):
        self.scheme.db.insert_rows(DEWEY_TABLE, self._rows)
        self._count += len(self._rows)
        self._rows.clear()

    def finish(self):
        self._flush()
        return {DEWEY_TABLE.name: self._count}


class DeweyScheme(MappingScheme):
    """The Dewey order-label mapping."""

    name = "dewey"

    def tables(self):
        return [DEWEY_TABLE]

    def stream_inserter(self, doc_id):
        return _DeweyStreamInserter(self, doc_id)

    def fetch_records(self, doc_id: int) -> list[tuple]:
        return _with_parents(
            self.db.query(
                "SELECT 0, pre, depth, kind, name, value FROM dewey "
                "WHERE doc_id = ? ORDER BY label",
                (doc_id,),
            )
        )

    def fetch_records_many(
        self, doc_id: int, pres: list[int]
    ) -> list[tuple]:
        # A subtree is the root's label plus everything it prefixes —
        # one contiguous range of the (doc_id, label) key, since no
        # label character sorts below the separator.
        return _with_parents(
            self.db.query(
                "SELECT r.pre, d.pre, d.depth, d.kind, d.name, d.value "
                "FROM dewey AS r JOIN dewey AS d ON d.doc_id = r.doc_id "
                "AND d.label >= r.label AND d.label < r.label || ? "
                f"WHERE r.doc_id = ? AND r.pre IN ({ROOTS}) "
                "ORDER BY r.pre, d.label",
                (PREFIX_RANGE_END, doc_id, roots_param(pres)),
            )
        )

    def _delete_rows(self, doc_id: int) -> None:
        self.db.execute("DELETE FROM dewey WHERE doc_id = ?", (doc_id,))

    def _audit_document(self, doc_id, record, report, records) -> None:
        rows = self.db.query(
            "SELECT label, parent_label, depth FROM dewey "
            "WHERE doc_id = ? ORDER BY label",
            (doc_id,),
        )
        labels = {label for label, __, __ in rows}
        report.ran("dewey-label-form")
        report.ran("dewey-prefix-closed")
        report.ran("dewey-depth")
        for label, parent_label, depth in rows:
            # A label of another form (a file shredded with six-digit
            # zero-padded components) does not sort among these.
            fault = dewey_label_fault(label)
            if fault is not None:
                report.add("dewey-label-form", f"label {label!r}: {fault}")
            expected_parent = dewey_parent(label)
            if parent_label != expected_parent:
                report.add(
                    "dewey-prefix-closed",
                    f"label {label!r} records parent {parent_label!r}, "
                    f"expected {expected_parent!r}",
                )
            elif parent_label is not None and parent_label not in labels:
                report.add(
                    "dewey-prefix-closed",
                    f"label {label!r} has no stored ancestor "
                    f"{parent_label!r} (prefix closure broken)",
                )
            components = label.count(DEWEY_SEPARATOR) + 1
            if depth != components:
                report.add(
                    "dewey-depth",
                    f"label {label!r} has {components} component(s) "
                    f"but depth {depth}",
                )

    def translator(self):
        from repro.query.translate_dewey import DeweyTranslator

        return DeweyTranslator(self)
