"""Binary mapping: the edge table partitioned by label.

Florescu & Kossmann's second mapping stores one table per distinct label
(element tag / attribute name / the reserved ``#text``/``#comment``/
``#pi`` labels):

.. code-block:: text

    b_<label>(doc_id, source, ordinal, label, kind, target, value, content)

plus a catalog relation ``binary_labels`` mapping labels to their
partition tables, a ``binary_edges`` view (the UNION ALL of all
partitions) for the operations that cannot be pruned to one partition —
wildcard steps and descendant closures — and, as with edge, the
``binary_paths`` label-path catalog a mid-path ``//`` expands over.
The ``label`` column is kept in every partition (redundantly) so the
view has a uniform shape.

The published trade-off this reproduces: label-selective child steps only
touch one small partition (beating the edge table), while ``//`` and
wildcards must union every partition (losing to the interval mapping).
"""

from __future__ import annotations

import hashlib
import re

from repro.relational.schema import (
    Column,
    INTEGER,
    Index,
    Table,
    TEXT,
    quote_identifier,
)
from repro.storage.base import (
    STREAM_BATCH,
    LabelPathCatalog,
    MappingScheme,
    PathDictionary,
    StreamInserter,
    label_paths_table,
)
from repro.storage.edge import edge_label, fetch_edge_rows

LABELS_TABLE = Table(
    name="binary_labels",
    columns=[
        Column("label", TEXT, primary_key=True),
        Column("table_name", TEXT, nullable=False),
    ],
)

EDGES_VIEW = "binary_edges"

#: Every element label path of each stored document (DESIGN §7).
PATHS_TABLE = label_paths_table("binary_paths")

_SANITIZE_RE = re.compile(r"[^a-z0-9_]+")


def partition_table_name(label: str) -> str:
    """Deterministic partition table name for *label*.

    A readable sanitized prefix plus a short hash for uniqueness (labels
    differing only in case or punctuation must not collide).
    """
    stem = _SANITIZE_RE.sub("_", label.lower()).strip("_") or "x"
    digest = hashlib.sha1(label.encode()).hexdigest()[:8]
    return f"b_{stem[:24]}_{digest}"


def partition_table(label: str) -> Table:
    """The :class:`Table` descriptor of one partition."""
    name = partition_table_name(label)
    return Table(
        name=name,
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
            Index(f"{name}_source", name, ("doc_id", "source")),
            Index(f"{name}_content", name, ("doc_id", "content"),
                  where="content"),
            Index(f"{name}_value", name, ("doc_id", "value"),
                  where="value"),
        ],
    )


class _BinaryStreamInserter(StreamInserter):
    """Streaming sink with per-partition row buffers.

    Partitions are created at the *first sighting* of each label —
    element labels at the start tag (:meth:`enter`), other labels at
    their node's completion, which for non-elements is their document
    position — so the ``binary_labels`` registry fills in exactly the
    pre-order first-seen sequence of the document.  Memory is bounded
    by labels × one row batch.
    """

    def __init__(self, scheme, doc_id):
        super().__init__(scheme, doc_id)
        self._tables: dict[str, str] = {}   # label -> partition table
        self._rows: dict[str, list[tuple]] = {}
        self._counts: dict[str, int] = {}
        self._paths = PathDictionary()

    def _table_for(self, label: str) -> str:
        table = self._tables.get(label)
        if table is None:
            table = self.scheme._ensure_partition(label)
            self._tables[label] = table
        return table

    needs_enter = True

    def enter(self, pre, name, parent_pre):
        self._table_for(name or "")
        self._paths.enter(pre, name, parent_pre)

    def add(self, r, content):
        label = edge_label(r)
        table = self._table_for(label)
        bucket = self._rows.setdefault(label, [])
        bucket.append(
            (self.doc_id, r.parent_pre, r.ordinal, label, r.kind,
             r.pre, r.value, content)
        )
        if len(bucket) >= STREAM_BATCH:
            self._flush(label, table, bucket)

    def _flush(self, label, table, bucket):
        self.scheme.db.executemany(
            f"INSERT INTO {quote_identifier(table)} "
            "(doc_id, source, ordinal, label, kind, target, value, "
            "content) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            bucket,
        )
        self._counts[table] = self._counts.get(table, 0) + len(bucket)
        bucket.clear()

    def finish(self):
        for label, bucket in self._rows.items():
            if bucket:
                self._flush(label, self._tables[label], bucket)
        self._counts[PATHS_TABLE.name] = self.scheme.label_paths.record(
            self.doc_id, self._paths
        )
        return self._counts


class BinaryScheme(MappingScheme):
    """The label-partitioned edge mapping."""

    name = "binary"

    # Translation consults the partition catalog (label-selective steps
    # compile to their partition table; unknown labels fall back to the
    # view) and, for a mid-path //, the label paths, so cached plans go
    # stale when a store/update adds a partition or a path.
    translation_depends_on_data = True

    def __init__(self, db) -> None:
        super().__init__(db)
        self.label_paths = LabelPathCatalog(self, PATHS_TABLE, EDGES_VIEW)

    def tables(self):
        return [LABELS_TABLE, PATHS_TABLE]

    # -- partition management ---------------------------------------------------

    def partitions(self) -> dict[str, str]:
        """Current label → partition-table mapping."""
        return dict(
            self.db.query("SELECT label, table_name FROM binary_labels")
        )

    def partition_for(self, label: str) -> str | None:
        """The partition table of *label*, or None if never seen."""
        row = self.db.query_one(
            "SELECT table_name FROM binary_labels WHERE label = ?", (label,)
        )
        return row[0] if row else None

    def _ensure_partition(self, label: str) -> str:
        existing = self.partition_for(label)
        if existing is not None:
            return existing
        table = partition_table(label)
        self.db.create_table(table)
        self.db.execute(
            "INSERT INTO binary_labels (label, table_name) VALUES (?, ?)",
            (label, table.name),
        )
        self._rebuild_view()
        return table.name

    def _rebuild_view(self) -> None:
        """Recreate the all-edges view over the current partitions."""
        self.db.execute(f"DROP VIEW IF EXISTS {EDGES_VIEW}")
        partitions = sorted(self.partitions().values())
        if not partitions:
            return
        arms = " UNION ALL ".join(
            f"SELECT doc_id, source, ordinal, label, kind, target, value, "
            f"content FROM {quote_identifier(p)}"
            for p in partitions
        )
        self.db.execute(f"CREATE VIEW {EDGES_VIEW} AS {arms}")

    def table_names(self) -> list[str]:
        return ["binary_labels", PATHS_TABLE.name] + sorted(
            self.partitions().values()
        )

    # -- shred / fetch / delete ------------------------------------------------------

    def stream_inserter(self, doc_id):
        return _BinaryStreamInserter(self, doc_id)

    # The closure cannot be pruned to a partition: every level probes
    # the union view (there from the first document on), materialized
    # once per fetch — the mapping's published cost.  One recursive arm
    # per partition is 7–11× slower on many roots (DESIGN §6).

    def fetch_records(self, doc_id: int) -> list[tuple]:
        return fetch_edge_rows(self.db, EDGES_VIEW, doc_id, None)

    def fetch_records_many(
        self, doc_id: int, pres: list[int]
    ) -> list[tuple]:
        return fetch_edge_rows(self.db, EDGES_VIEW, doc_id, pres)

    def _delete_rows(self, doc_id: int) -> None:
        for table_name in self.partitions().values():
            self.db.execute(
                f"DELETE FROM {quote_identifier(table_name)} "
                "WHERE doc_id = ?",
                (doc_id,),
            )

    def _audit_document(self, doc_id, record, report, records) -> None:
        from repro.storage.edge import audit_edge_structure

        report.ran("binary-catalog")
        for label, table_name in self.partitions().items():
            if not self.db.table_exists(table_name):
                report.add(
                    "binary-catalog",
                    f"partition {table_name!r} of label {label!r} is "
                    "registered but the table does not exist",
                )
                continue
            mismatched = self.db.scalar(
                f"SELECT COUNT(*) FROM {quote_identifier(table_name)} "
                "WHERE doc_id = ? AND label != ?",
                (doc_id, label),
            )
            if mismatched:
                report.add(
                    "binary-catalog",
                    f"{mismatched} row(s) in partition {table_name!r} "
                    f"carry a label other than {label!r}",
                )
        if self.partitions():
            rows = self.db.query(
                f"SELECT source, target FROM {EDGES_VIEW} "
                "WHERE doc_id = ?",
                (doc_id,),
            )
            audit_edge_structure(rows, report)

    def translator(self):
        from repro.query.translate_binary import BinaryTranslator

        return BinaryTranslator(self)
