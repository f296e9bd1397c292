"""Universal-table mapping: the fully denormalized strawman.

One wide relation holds one row per *root-to-leaf path instance*; for
every distinct label ``l`` the table has a column triple
``(n<i>_ord, n<i>_id, n<i>_val)`` assigned through the ``universal_labels``
catalog.  A row fills the triples of the labels on its path and leaves
every other column NULL — the full-outer-join shape of Florescu &
Kossmann's Universal relation.  Each row also carries a ``path_id`` into
``universal_paths`` (the label sequence), which disambiguates rows whose
non-NULL label *sets* coincide but whose paths differ.

Published behaviour reproduced here:

* linear path queries need no structural join (E3/E8): the path catalog
  picks the matching ``path_id``s and the wide relation is probed by its
  one index, ``(doc_id, path_id)``,
* storage explodes with document size and fanout — ancestors are repeated
  once per leaf below them (E1),
* recursive documents (a label repeating along one path) cannot be
  represented at all — storing one raises
  :class:`~repro.errors.SchemaMappingError`,
* anything beyond linear paths (wildcards, positions) is untranslatable.

Attribute labels are stored with an ``@`` prefix; text, comment and PI
nodes use the same reserved labels as the edge mapping.
"""

from __future__ import annotations

from repro.errors import SchemaMappingError, StorageError
from repro.relational.schema import Column, INTEGER, Index, Table, TEXT
from repro.storage.base import BufferedStreamInserter, MappingScheme
from repro.storage.numbering import NodeRecord
from repro.xml.dom import NodeKind

LABELS_TABLE = Table(
    name="universal_labels",
    columns=[
        Column("label", TEXT, primary_key=True),
        Column("col_index", INTEGER, nullable=False),
    ],
)

PATHS_TABLE = Table(
    name="universal_paths",
    columns=[
        Column("doc_id", INTEGER, nullable=False),
        Column("path_id", INTEGER, nullable=False),
        Column("pathexp", TEXT, nullable=False),
    ],
    primary_key=("doc_id", "path_id"),
)

UNIVERSAL = "universal"

#: The wide relation as created; one ``(ord, id, val)`` column triple
#: per label is added as documents bring labels in.
UNIVERSAL_TABLE = Table(
    name=UNIVERSAL,
    columns=[
        Column("doc_id", INTEGER, nullable=False),
        Column("path_id", INTEGER, nullable=False),
    ],
    indexes=[
        Index("universal_path", UNIVERSAL, ("doc_id", "path_id")),
    ],
)

# Separator inside pathexp strings: '#/label' per child step.
PATH_SEP = "#/"


def node_label(record: NodeRecord) -> str:
    """The universal-table label of a stored node."""
    kind = record.kind
    if kind == int(NodeKind.ELEMENT):
        return record.name or ""
    if kind == int(NodeKind.ATTRIBUTE):
        return f"@{record.name}"
    if kind == int(NodeKind.TEXT):
        return "#text"
    if kind == int(NodeKind.COMMENT):
        return "#comment"
    return f"#pi:{record.name}"


def label_kind(label: str) -> int:
    """Invert :func:`node_label` to the node kind."""
    if label.startswith("@"):
        return int(NodeKind.ATTRIBUTE)
    if label == "#text":
        return int(NodeKind.TEXT)
    if label == "#comment":
        return int(NodeKind.COMMENT)
    if label.startswith("#pi"):
        return int(NodeKind.PROCESSING_INSTRUCTION)
    return int(NodeKind.ELEMENT)


def label_name(label: str) -> str | None:
    """The node name encoded in *label* (None for text/comments)."""
    kind = label_kind(label)
    if kind == int(NodeKind.ATTRIBUTE):
        return label[1:]
    if kind == int(NodeKind.PROCESSING_INSTRUCTION):
        return label.split(":", 1)[1] if ":" in label else label
    if kind == int(NodeKind.ELEMENT):
        return label
    return None


class UniversalScheme(MappingScheme):
    """The single wide denormalized relation."""

    name = "universal"

    # Translation bakes in the known label columns (an unknown final
    # label compiles to an always-false plan), so cached plans must be
    # invalidated whenever a store/delete can change the label set.
    translation_depends_on_data = True

    def tables(self):
        return [LABELS_TABLE, PATHS_TABLE, UNIVERSAL_TABLE]

    def stream_inserter(self, doc_id):
        # The wide relation needs the whole record set: each tuple spans
        # a root-to-leaf chain.
        return BufferedStreamInserter(self, doc_id, self._insert_all)

    # -- label columns ------------------------------------------------------------

    def label_columns(self) -> dict[str, int]:
        """Current label → column-index assignment."""
        return dict(
            self.db.query("SELECT label, col_index FROM universal_labels")
        )

    def column_triple(self, index: int) -> tuple[str, str, str]:
        """(ord, id, val) column names of label column *index*."""
        return f"n{index}_ord", f"n{index}_id", f"n{index}_val"

    def _ensure_label(self, label: str, known: dict[str, int]) -> int:
        if label in known:
            return known[label]
        index = len(known)
        known[label] = index
        self.db.execute(
            "INSERT INTO universal_labels (label, col_index) VALUES (?, ?)",
            (label, index),
        )
        ord_col, id_col, val_col = self.column_triple(index)
        for column, col_type in (
            (ord_col, "INTEGER"), (id_col, "INTEGER"), (val_col, "TEXT"),
        ):
            self.db.execute(
                f"ALTER TABLE {UNIVERSAL} ADD COLUMN {column} {col_type}"
            )
        return index

    # -- shredding ---------------------------------------------------------------------

    def _insert_all(
        self,
        doc_id: int,
        records: list[NodeRecord],
        contents: dict[int, str],
    ) -> dict[str, int]:
        by_pre = {r.pre: r for r in records}
        children_of: dict[int, list[NodeRecord]] = {}
        for record in records:
            children_of.setdefault(record.parent_pre, []).append(record)
        known = self.label_columns()
        path_ids: dict[str, int] = {}
        rows: list[dict[str, object]] = []

        def value_of(record: NodeRecord) -> str | None:
            if record.kind == int(NodeKind.ELEMENT):
                return contents.get(record.pre)
            return record.value

        def emit(leaf: NodeRecord) -> None:
            chain: list[NodeRecord] = []
            current: NodeRecord | None = leaf
            while current is not None:
                chain.append(current)
                current = by_pre.get(current.parent_pre)
            chain.reverse()
            labels = [node_label(r) for r in chain]
            if len(set(labels)) != len(labels):
                raise SchemaMappingError(
                    "universal table cannot store recursive paths "
                    f"(label repeats along {PATH_SEP.join(labels)})"
                )
            pathexp = "".join(PATH_SEP + label for label in labels)
            if pathexp not in path_ids:
                path_ids[pathexp] = len(path_ids) + 1
            row: dict[str, object] = {
                "doc_id": doc_id,
                "path_id": path_ids[pathexp],
            }
            for record, label in zip(chain, labels):
                index = self._ensure_label(label, known)
                ord_col, id_col, val_col = self.column_triple(index)
                row[ord_col] = record.ordinal
                row[id_col] = record.pre
                row[val_col] = value_of(record)
            rows.append(row)

        known_before = len(known)
        for record in records:
            if not children_of.get(record.pre):
                emit(record)
        self.db.executemany(
            "INSERT INTO universal_paths (doc_id, path_id, pathexp) "
            "VALUES (?, ?, ?)",
            [
                (doc_id, path_id, pathexp)
                for pathexp, path_id in path_ids.items()
            ],
        )
        # Rows sharing a column signature (same path shape) insert as one
        # batch instead of one statement per row.
        by_shape: dict[tuple[str, ...], list[dict[str, object]]] = {}
        for row in rows:
            by_shape.setdefault(tuple(row), []).append(row)
        for columns, shaped_rows in by_shape.items():
            marks = ", ".join("?" for _ in columns)
            self.db.executemany(
                f"INSERT INTO {UNIVERSAL} ({', '.join(columns)}) "
                f"VALUES ({marks})",
                [[row[c] for c in columns] for row in shaped_rows],
            )
        return {
            UNIVERSAL: len(rows),
            PATHS_TABLE.name: len(path_ids),
            LABELS_TABLE.name: len(known) - known_before,
        }

    # -- retrieval -----------------------------------------------------------------------

    def fetch_records(self, doc_id: int) -> list[tuple]:
        # The table has no subtree handle and no order: whatever is
        # asked for, every row of the document is read (the published
        # behaviour), but path by path through the (doc_id, path_id)
        # index and only the chain's columns.  The paths come from the
        # rows, so one missing from the catalog is still seen.
        labels = self.label_columns()
        element_kind = int(NodeKind.ELEMENT)
        leaves = []
        for path_id, pathexp in self.db.query(
            f"SELECT u.path_id, p.pathexp FROM (SELECT DISTINCT path_id "
            f"FROM {UNIVERSAL} WHERE doc_id = ?) AS u "
            "LEFT JOIN universal_paths AS p "
            "ON p.doc_id = ? AND p.path_id = u.path_id",
            (doc_id, doc_id),
        ):
            if pathexp is None:
                raise StorageError(
                    f"universal row references path_id {path_id} absent "
                    "from universal_paths"
                )
            chain = [label for label in pathexp.split(PATH_SEP) if label]
            for label in chain:
                if label not in labels:
                    raise StorageError(
                        f"universal path {pathexp!r} uses label {label!r} "
                        "with no column assignment"
                    )
            triples = [self.column_triple(labels[label]) for label in chain]
            nodes = [(label_kind(label), label_name(label)) for label in chain]
            # Only the leaf can carry a value (an element's value column
            # caches text its text rows carry anyway: not read).
            leaf_value = (
                "NULL" if nodes[-1][0] == element_kind else triples[-1][2]
            )
            columns = [id_col for _, id_col, _ in triples] + [leaf_value]
            for *ids, value in self.db.query(
                f"SELECT {', '.join(columns)} FROM {UNIVERSAL} "
                "WHERE doc_id = ? AND path_id = ?",
                (doc_id, path_id),
            ):
                if None in ids:
                    raise StorageError(
                        "universal row missing id for label "
                        f"{chain[ids.index(None)]!r}"
                    )
                leaves.append((ids, nodes, value))
        # One row per leaf, and a leaf closes its chain: sorted by leaf
        # id, each row repeats a prefix of the row before it and every
        # position past that prefix is a node not yet seen — in
        # document order.
        leaves.sort(key=lambda leaf: leaf[0][-1])
        rows: list[tuple] = []
        seen: list[int] = []
        for ids, nodes, value in leaves:
            depth = leaf = len(ids) - 1
            while depth and (
                depth > len(seen) or ids[depth - 1] != seen[depth - 1]
            ):
                depth -= 1
            for at in range(depth, leaf + 1):
                kind, name = nodes[at]
                rows.append((
                    0, ids[at], ids[at - 1] if at else 0, kind, name,
                    value if at == leaf else None,
                ))
            seen = ids
        return rows

    def _delete_rows(self, doc_id: int) -> None:
        self.db.execute(
            f"DELETE FROM {UNIVERSAL} WHERE doc_id = ?", (doc_id,)
        )
        self.db.execute(
            "DELETE FROM universal_paths WHERE doc_id = ?", (doc_id,)
        )

    def _audit_document(self, doc_id, record, report, records) -> None:
        labels = self.label_columns()
        paths = dict(
            self.db.query(
                "SELECT path_id, pathexp FROM universal_paths "
                "WHERE doc_id = ?",
                (doc_id,),
            )
        )
        report.ran("universal-labels")
        for pathexp in paths.values():
            for label in pathexp.split(PATH_SEP):
                if label and label not in labels:
                    report.add(
                        "universal-labels",
                        f"path {pathexp!r} uses label {label!r} with no "
                        "column assignment in universal_labels",
                    )
        rows = self.db.query(
            f"SELECT * FROM {UNIVERSAL} WHERE doc_id = ?", (doc_id,)
        )
        column_names = [
            d[0] for d in self.db.execute(
                f"SELECT * FROM {UNIVERSAL} LIMIT 0"
            ).description
        ]
        report.ran("universal-paths")
        report.ran("universal-ids")
        for row in rows:
            values = dict(zip(column_names, row))
            path_id = values["path_id"]
            pathexp = paths.get(path_id)
            if pathexp is None:
                report.add(
                    "universal-paths",
                    f"row references path_id {path_id} absent from "
                    "universal_paths",
                )
                continue
            for label in pathexp.split(PATH_SEP):
                if not label or label not in labels:
                    continue
                id_col = self.column_triple(labels[label])[1]
                if id_col in values and values[id_col] is None:
                    report.add(
                        "universal-ids",
                        f"row on path {pathexp!r} has NULL id for "
                        f"label {label!r}",
                    )

    def translator(self):
        from repro.query.translate_universal import UniversalTranslator

        return UniversalTranslator(self)
