"""Binary mapping: the edge table partitioned by label.

Florescu & Kossmann's second mapping stores one table per distinct label
(element tag / attribute name / the reserved ``#text``/``#comment``/
``#pi`` labels):

.. code-block:: text

    b_<label>(doc_id, source, ordinal, label, kind, target, value, content)

plus a catalog relation ``binary_labels`` mapping labels to their
partition tables, ``binary_child_labels`` naming which labels occur as
children of which element label (what a subtree fetch probes), a
``binary_edges`` view (the UNION ALL of all partitions) for the
operations that cannot be pruned to one partition — wildcard steps and
descendant closures — and, as with edge, the ``binary_paths``
label-path catalog a mid-path ``//`` expands over.  The ``label``
column is kept in every partition (redundantly) so the view has a
uniform shape.

The published trade-off this reproduces: label-selective child steps only
touch one small partition (beating the edge table), while ``//`` and
wildcards must union every partition (losing to the interval mapping).
"""

from __future__ import annotations

import hashlib
import re
from operator import itemgetter

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
    roots_param,
)
from repro.storage.edge import edge_label, label_name_sql
from repro.xml.dom import NodeKind

LABELS_TABLE = Table(
    name="binary_labels",
    columns=[
        Column("label", TEXT, primary_key=True),
        Column("table_name", TEXT, nullable=False),
    ],
)

#: Which labels occur as children of which element label, store-wide:
#: every write that adds rows adds its pairs, and a delete leaves them
#: (a superset only adds arms that find nothing).
CHILD_LABELS_TABLE = Table(
    name="binary_child_labels",
    columns=[
        Column("parent_label", TEXT, nullable=False),
        Column("child_label", TEXT, nullable=False),
    ],
    primary_key=("parent_label", "child_label"),
    without_rowid=True,
)

EDGES_VIEW = "binary_edges"

#: Every element label path of each stored document (DESIGN §7).
PATHS_TABLE = label_paths_table("binary_paths")

_SANITIZE_RE = re.compile(r"[^a-z0-9_]+")

_ELEMENT = int(NodeKind.ELEMENT)


#: The publish columns of one partition row ``p``, name decoded.
_SELECT = (
    "SELECT p.source, p.ordinal, p.target, p.kind, "
    f"{label_name_sql('p.')}, p.value"
)


def _probe(db, doc_id: int, column: str, arms: dict[str, int],
           ids: list[list[int]]) -> list[tuple]:
    """One statement: for each partition of *arms*, its rows of
    *doc_id* whose *column* is one of ``ids[arms[table]]``.

    Each id list binds as one JSON array, read once into a CTE however
    many arms probe it; an arm walks its list and probes the
    partition's ``(doc_id, column)`` index.  The lists hold no
    duplicates, so neither does the result.
    """
    ctes = ", ".join(
        f"ids{n}(id) AS (SELECT value FROM json_each(?))"
        for n in range(len(ids))
    )
    selects = " UNION ALL ".join(
        f"{_SELECT} FROM ids{n} CROSS JOIN {quote_identifier(table)} p "
        f"ON p.doc_id = ? AND p.{column} = ids{n}.id"
        for table, n in arms.items()
    )
    return db.query(
        f"WITH {ctes} {selects}",
        [roots_param(group) for group in ids] + [doc_id] * len(arms),
    )


_BY_ORDER = itemgetter(1, 2)   # (ordinal, target) of a fetched row


def _adopt(children: dict[int, list[tuple]], rows: list[tuple]) -> None:
    """File fetched *rows* under their parent's id, siblings in
    ``(ordinal, target)`` order."""
    rows.sort(key=_BY_ORDER)
    for row in rows:
        siblings = children.get(row[0])
        if siblings is None:
            children[row[0]] = [row]
        else:
            siblings.append(row)


def _runs(roots: list[tuple], children: dict[int, list[tuple]],
          whole: bool) -> list[tuple]:
    """Publish rows of each root's subtree, depth first, tagged with the
    root's id (with 0 for the *whole* document)."""
    rows: list[tuple] = []
    append = rows.append
    for root in roots:
        tag = 0 if whole else root[2]
        stack = [root]
        pop = stack.pop
        extend = stack.extend
        while stack:
            source, _ordinal, target, kind, name, value = pop()
            append((tag, target, source, kind, name, value))
            below = children.get(target)
            if below is not None:
                extend(reversed(below))
    return rows


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
    pre-order first-seen sequence of the document; the view over them is
    rebuilt once, in :meth:`finish`.  A node completes before its parent
    element, so each child label waits under its parent's ``pre`` until
    the parent's row names the pair; only open elements wait.  Memory is
    bounded by labels × one row batch.
    """

    def __init__(self, scheme, doc_id):
        super().__init__(scheme, doc_id)
        self._tables: dict[str, str] = {}   # label -> partition table
        self._rows: dict[str, list[tuple]] = {}
        self._counts: dict[str, int] = {}
        self._paths = PathDictionary()
        self._added_partition = False
        # parent pre -> labels of its children stored so far
        self._waiting: dict[int, set[str]] = {}
        self._pairs: set[tuple[str, str]] = set()

    def _table_for(self, label: str) -> str:
        table = self._tables.get(label)
        if table is None:
            table, added = self.scheme._ensure_partition(label)
            self._added_partition |= added
            self._tables[label] = table
        return table

    needs_enter = True

    def enter(self, pre, name, parent_pre):
        self._table_for(name or "")
        self._paths.enter(pre, name, parent_pre)

    def add(self, r, content):
        label = edge_label(r)
        table = self._table_for(label)
        if r.parent_pre:
            waiting = self._waiting.get(r.parent_pre)
            if waiting is None:
                self._waiting[r.parent_pre] = {label}
            else:
                waiting.add(label)
        if r.kind == _ELEMENT:
            children = self._waiting.pop(r.pre, None)
            if children:
                self._pairs.update((label, child) for child in children)
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
        if self._added_partition:
            self.scheme._rebuild_view()
        # Children still waiting hang under an element stored before
        # this write: an inserted fragment's root.
        for parent_pre, children in self._waiting.items():
            row = self.scheme.db.query_one(
                f"SELECT label FROM {EDGES_VIEW} "
                "WHERE doc_id = ? AND target = ?",
                (self.doc_id, parent_pre),
            )
            if row is not None:
                self._pairs.update((row[0], child) for child in children)
        if self._pairs:
            self.scheme.db.executemany(
                f"INSERT INTO {CHILD_LABELS_TABLE.name} "
                "(parent_label, child_label) VALUES (?, ?) "
                "ON CONFLICT DO NOTHING",
                sorted(self._pairs),
            )
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
        return [LABELS_TABLE, CHILD_LABELS_TABLE, PATHS_TABLE]

    def create_schema(self) -> None:
        fresh = not self.db.read_only and not self.db.table_exists(
            CHILD_LABELS_TABLE.name
        )
        super().create_schema()
        if fresh and self.partitions():
            # A file written before the relation existed: fill it from
            # the stored rows once, or every fetch would stop at its
            # roots.
            self.db.execute(
                f"INSERT INTO {CHILD_LABELS_TABLE.name} "
                "(parent_label, child_label) "
                f"SELECT DISTINCT p.label, c.label FROM {EDGES_VIEW} c "
                f"JOIN {EDGES_VIEW} p "
                "ON p.doc_id = c.doc_id AND p.target = c.source"
            )

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

    def _ensure_partition(self, label: str) -> tuple[str, bool]:
        """The partition of *label*, and whether this call created it
        (the caller then owes the view a :meth:`_rebuild_view`)."""
        existing = self.partition_for(label)
        if existing is not None:
            return existing, False
        table = partition_table(label)
        self.db.create_table(table)
        self.db.execute(
            "INSERT INTO binary_labels (label, table_name) VALUES (?, ?)",
            (label, table.name),
        )
        return table.name, True

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
        return [t.name for t in self.tables()] + sorted(
            self.partitions().values()
        )

    # -- shred / fetch / delete ------------------------------------------------------

    def stream_inserter(self, doc_id):
        return _BinaryStreamInserter(self, doc_id)

    # A subtree is read level by level, each level from only the
    # partitions its parents' labels can reach (binary_child_labels):
    # one catalog read, one statement for the roots and one per level
    # below them, whatever the root count.  The all-partitions view is
    # never read: sqlite would materialize all of it for every fetch.

    def fetch_records(self, doc_id: int) -> list[tuple]:
        return self._fetch_rows(doc_id, None)

    def fetch_records_many(
        self, doc_id: int, pres: list[int]
    ) -> list[tuple]:
        return self._fetch_rows(doc_id, pres) if pres else []

    def _fetch_rows(self, doc_id: int, pres: list[int] | None) -> list[tuple]:
        """Publish rows ``(root, pre, parent_pre, kind, name, value)``
        of the subtrees rooted at *pres* (``None``: the whole document
        as one run under root 0), in the shape
        :meth:`MappingScheme.fetch_records_many` promises.

        The roots are one probe of every partition; each further level
        probes, for every child label the level's element labels have,
        that label's partition with ``source IN`` the elements that can
        be its parent.  The whole document needs no probing: it is one
        read of every partition.  Children are ordered by ``(ordinal,
        target)`` — node ids stop being document order at the first
        insert — and each root's run is walked depth first, so a node
        under two nested roots comes out once per root.
        """
        tables: dict[str, None] = {}
        children_of: dict[str, list[str]] = {}
        for parent, table in self.db.query(
            f"SELECT NULL, table_name FROM {LABELS_TABLE.name} UNION ALL "
            f"SELECT c.parent_label, l.table_name "
            f"FROM {CHILD_LABELS_TABLE.name} c "
            f"JOIN {LABELS_TABLE.name} l ON l.label = c.child_label"
        ):
            if parent is None:
                tables[table] = None
            else:
                children_of.setdefault(parent, []).append(table)
        if not tables:
            return []
        children: dict[int, list[tuple]] = {}
        if pres is None:
            _adopt(children, self.db.query(
                " UNION ALL ".join(
                    f"{_SELECT} FROM {quote_identifier(table)} p "
                    "WHERE p.doc_id = ?"
                    for table in tables
                ),
                [doc_id] * len(tables),
            ))
            return _runs(children.pop(0, []), children, whole=True)
        roots = _probe(
            self.db, doc_id, "target", dict.fromkeys(tables, 0),
            [sorted(set(pres))],
        )
        roots.sort(key=_BY_ORDER)
        root_ids = {row[2] for row in roots}
        level = roots
        while level:
            # element label -> the level's elements carrying it; a
            # nested root met again below another was expanded already
            frontier: dict[str, list[int]] = {}
            for row in level:
                if row[3] == _ELEMENT and (
                    level is roots or row[2] not in root_ids
                ):
                    frontier.setdefault(row[4], []).append(row[2])
            # child partition -> the frontier labels it is probed for
            wanted: dict[str, tuple[str, ...]] = {}
            for label in frontier:
                for table in children_of.get(label, ()):
                    wanted[table] = wanted.get(table, ()) + (label,)
            if not wanted:
                break
            # one id list per distinct set of parent labels
            slots = {labels: n for n, labels in enumerate(
                dict.fromkeys(wanted.values())
            )}
            level = _probe(
                self.db, doc_id, "source",
                {table: slots[labels] for table, labels in wanted.items()},
                [
                    [pre for label in labels for pre in frontier[label]]
                    for labels in slots
                ],
            )
            _adopt(children, level)
        return _runs(roots, children, whole=False)

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
        report.ran("binary-child-labels")
        if self.partitions():
            rows = self.db.query(
                f"SELECT source, target, label, kind FROM {EDGES_VIEW} "
                "WHERE doc_id = ?",
                (doc_id,),
            )
            audit_edge_structure([row[:2] for row in rows], report)
            # A stored (parent, child) label pair the relation lacks
            # would drop the child's subtree from every fetch.
            elements = {
                target: label for _s, target, label, kind in rows
                if kind == _ELEMENT
            }
            stored = {
                (elements[source], label)
                for source, _t, label, _k in rows if source in elements
            }
            missing = stored.difference(self.db.query(
                "SELECT parent_label, child_label "
                f"FROM {CHILD_LABELS_TABLE.name}"
            ))
            if missing:
                report.add(
                    "binary-child-labels",
                    f"{len(missing)} stored (parent, child) label "
                    f"pair(s) missing from {CHILD_LABELS_TABLE.name}: "
                    f"{sorted(missing)[:10]}",
                )

    def translator(self):
        from repro.query.translate_binary import BinaryTranslator

        return BinaryTranslator(self)
