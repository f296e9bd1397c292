"""XRel mapping (Yoshikawa et al., TOIT 2001): paths + regions.

Four relations:

.. code-block:: text

    xrel_paths(doc_id, path_id, pathexp)
    xrel_element(doc_id, path_id, start, end, ordinal, name, content)
    xrel_attribute(doc_id, path_id, start, end, ordinal, name, value)
    xrel_text(doc_id, path_id, start, end, ordinal, kind, name, value)

``pathexp`` is the root-to-node label path in XRel's ``#/`` notation
(attributes as ``#/@name``); ``(start, end)`` is the node's *region* —
here ``start = pre`` and ``end = pre + size``, which nest exactly like
XRel's byte offsets.  Simple paths become a match against the small path
table plus one probe of a node table; ancestor/descendant relationships
between *instances* are region containment (``c.start > e.start AND
c.end <= e.end``).  Each node table is indexed ``(doc_id, path_id,
start)``, and because ``e.end`` is the ``start`` of ``e``'s last
descendant, containment implies ``c.start <= e.end``: a structural join
is one ``start`` range probe per context node, not a scan of every node
on the child path.

Text, comment and PI nodes share ``xrel_text`` (a ``kind`` column tells
them apart; comments/PIs are outside XRel's published scope but keeping
them makes reconstruction lossless).  Elements carry a cached ``content``
column for text-only content — the same inlined-value optimization the
other mappings use for single-column value predicates.
"""

from __future__ import annotations

from repro.relational.schema import Column, INTEGER, Index, Table, TEXT
from repro.storage.base import (
    ROOTS,
    STREAM_BATCH,
    MappingScheme,
    PathDictionary,
    StreamInserter,
    roots_param,
)
from repro.xml.dom import NodeKind

PATH_SEP = "#/"

PATHS_TABLE = Table(
    name="xrel_paths",
    columns=[
        Column("doc_id", INTEGER, nullable=False),
        Column("path_id", INTEGER, nullable=False),
        Column("pathexp", TEXT, nullable=False),
    ],
    primary_key=("doc_id", "path_id"),
    indexes=[
        Index("xrel_paths_exp", "xrel_paths", ("doc_id", "pathexp")),
    ],
)

ELEMENT_TABLE = Table(
    name="xrel_element",
    columns=[
        Column("doc_id", INTEGER, nullable=False),
        Column("path_id", INTEGER, nullable=False),
        Column("start", INTEGER, nullable=False),
        Column("end", INTEGER, nullable=False),
        Column("ordinal", INTEGER, nullable=False),
        Column("name", TEXT, nullable=False),
        Column("content", TEXT),
    ],
    primary_key=("doc_id", "start"),
    indexes=[
        Index(
            "xrel_element_region",
            "xrel_element",
            ("doc_id", "path_id", "start"),
        ),
        Index(
            "xrel_element_content",
            "xrel_element",
            ("doc_id", "name", "content"),
            where="content",
        ),
    ],
)

ATTRIBUTE_TABLE = Table(
    name="xrel_attribute",
    columns=[
        Column("doc_id", INTEGER, nullable=False),
        Column("path_id", INTEGER, nullable=False),
        Column("start", INTEGER, nullable=False),
        Column("end", INTEGER, nullable=False),
        Column("ordinal", INTEGER, nullable=False),
        Column("name", TEXT, nullable=False),
        Column("value", TEXT),
    ],
    primary_key=("doc_id", "start"),
    indexes=[
        Index(
            "xrel_attribute_region",
            "xrel_attribute",
            ("doc_id", "path_id", "start"),
        ),
        Index(
            "xrel_attribute_value",
            "xrel_attribute",
            ("doc_id", "name", "value"),
        ),
    ],
)

TEXT_TABLE = Table(
    name="xrel_text",
    columns=[
        Column("doc_id", INTEGER, nullable=False),
        Column("path_id", INTEGER, nullable=False),
        Column("start", INTEGER, nullable=False),
        Column("end", INTEGER, nullable=False),
        Column("ordinal", INTEGER, nullable=False),
        Column("kind", INTEGER, nullable=False),
        Column("name", TEXT),
        Column("value", TEXT),
    ],
    primary_key=("doc_id", "start"),
    indexes=[
        Index(
            "xrel_text_region",
            "xrel_text",
            ("doc_id", "path_id", "start"),
        ),
        Index("xrel_text_value", "xrel_text", ("doc_id", "value")),
    ],
)


#: kind, name, value of a node as each node table holds them.
_NODE_COLUMNS = {
    "xrel_element": f"{int(NodeKind.ELEMENT)}, name, NULL",
    "xrel_attribute": f"{int(NodeKind.ATTRIBUTE)}, name, value",
    "xrel_text": "kind, name, value",
}


def _node_union(root: str, scope: str) -> str:
    """One statement over the three node tables: ``(root, start, end,
    kind, name, value)`` rows ordered by (root, start) — ``start`` is
    the node's ``pre``, unique across the tables.  *scope* is what
    follows each ``FROM <table>``."""
    arms = " UNION ALL ".join(
        f"SELECT {root}, start, end, {columns} FROM {table} {scope}"
        for table, columns in _NODE_COLUMNS.items()
    )
    return f"{arms} ORDER BY 1, 2"


def _with_parents(rows: list[tuple]) -> list[tuple]:
    """Start-ordered ``(root, start, end, kind, name, value)`` rows →
    ``(root, pre, parent_pre, kind, name, value)``: XRel stores no
    parent pointer, a node's parent is the innermost element region
    still open at its start (0 above a run's first row)."""
    element_kind = int(NodeKind.ELEMENT)
    open_regions: list[tuple[int, int]] = []  # (start, end)
    out = []
    for root, start, end, kind, name, value in rows:
        if start == root:
            open_regions = []
        while open_regions and open_regions[-1][1] < start:
            open_regions.pop()
        out.append((
            root, start, open_regions[-1][0] if open_regions else 0,
            kind, name, value,
        ))
        if kind == element_kind:
            open_regions.append((start, end))
    return out


class _XRelStreamInserter(StreamInserter):
    """Streaming sink over the shred lane's
    :class:`~repro.storage.base.PathDictionary`.

    Paths are numbered by first use: element paths at the start tag
    (:meth:`enter`), attribute paths at the attribute node, non-element
    paths by reuse of the open parent's — the order a pre-order walk of
    the document would assign.  Node rows land in completion order
    (elements close after their descendants); the tables are keyed and
    queried by ``start``, so insertion order is immaterial.  Memory is
    bounded by the path dictionary plus one row batch per table.
    """

    needs_enter = True

    def __init__(self, scheme, doc_id):
        super().__init__(scheme, doc_id)
        self._paths = PathDictionary()
        self.enter = self._paths.enter
        self._tables = {
            t.name: t for t in (ELEMENT_TABLE, ATTRIBUTE_TABLE, TEXT_TABLE)
        }
        self._rows = {name: [] for name in self._tables}
        self._counts = {name: 0 for name in self._tables}

    def _buffer(self, table, row):
        rows = self._rows[table.name]
        rows.append(row)
        if len(rows) >= STREAM_BATCH:
            self._flush(table.name)

    def _flush(self, name):
        rows = self._rows[name]
        if rows:
            self.scheme.db.insert_rows(self._tables[name], rows)
            self._counts[name] += len(rows)
            rows.clear()

    def add(self, r, content):
        start, end = r.pre, r.pre + r.size
        paths = self._paths
        if r.kind == int(NodeKind.ELEMENT):
            pid = paths.ids[paths.path_of(r.pre)]
            self._buffer(
                ELEMENT_TABLE,
                (self.doc_id, pid, start, end, r.ordinal, r.name, content),
            )
        elif r.kind == int(NodeKind.ATTRIBUTE):
            pid = paths.id_of(paths.path_of(r.parent_pre) + (f"@{r.name}",))
            self._buffer(
                ATTRIBUTE_TABLE,
                (self.doc_id, pid, start, end, r.ordinal, r.name, r.value),
            )
        else:
            pid = paths.id_of(paths.path_of(r.parent_pre))
            self._buffer(
                TEXT_TABLE,
                (self.doc_id, pid, start, end, r.ordinal, r.kind, r.name,
                 r.value),
            )

    def finish(self):
        for name in self._rows:
            self._flush(name)
        ids = self._paths.ids
        self.scheme.db.executemany(
            "INSERT INTO xrel_paths (doc_id, path_id, pathexp) "
            "VALUES (?, ?, ?)",
            [(self.doc_id, pid, "".join(PATH_SEP + label for label in path))
             for path, pid in ids.items()],
        )
        self._counts[PATHS_TABLE.name] = len(ids)
        return self._counts


class XRelScheme(MappingScheme):
    """The path + region mapping."""

    name = "xrel"

    def tables(self):
        return [PATHS_TABLE, ELEMENT_TABLE, ATTRIBUTE_TABLE, TEXT_TABLE]

    def stream_inserter(self, doc_id):
        return _XRelStreamInserter(self, doc_id)

    def fetch_records(self, doc_id: int) -> list[tuple]:
        return _with_parents(
            self.db.query(
                _node_union("0", "WHERE doc_id = ?"), [doc_id] * 3
            )
        )

    def fetch_records_many(
        self, doc_id: int, pres: list[int]
    ) -> list[tuple]:
        # One statement: the root regions are looked up where they live
        # (a root may sit in any node table), then every node table is
        # range-joined against them — one (doc_id, start) key range per
        # root and table.
        regions = " UNION ALL ".join(
            f"SELECT start, end FROM {table} "
            f"WHERE doc_id = ? AND start IN ({ROOTS})"
            for table in _NODE_COLUMNS
        )
        return _with_parents(
            self.db.query(
                f"WITH regions(lo, hi) AS ({regions}) "
                + _node_union(
                    "lo",
                    "JOIN regions ON start BETWEEN lo AND hi "
                    "WHERE doc_id = ?",
                ),
                [doc_id, roots_param(pres)] * 3 + [doc_id] * 3,
            )
        )

    def _delete_rows(self, doc_id: int) -> None:
        for table in ("xrel_paths", "xrel_element", "xrel_attribute",
                      "xrel_text"):
            self.db.execute(
                f"DELETE FROM {table} WHERE doc_id = ?", (doc_id,)
            )

    def _audit_document(self, doc_id, record, report, records) -> None:
        path_ids = {
            pid
            for (pid,) in self.db.query(
                "SELECT path_id FROM xrel_paths WHERE doc_id = ?",
                (doc_id,),
            )
        }
        report.ran("xrel-paths")
        report.ran("xrel-regions")
        for table in ("xrel_element", "xrel_attribute", "xrel_text"):
            rows = self.db.query(
                f"SELECT path_id, start, end FROM {table} "
                "WHERE doc_id = ?",
                (doc_id,),
            )
            for path_id, start, end in rows:
                if path_id not in path_ids:
                    report.add(
                        "xrel-paths",
                        f"{table} row at start={start} references "
                        f"path_id {path_id} absent from xrel_paths",
                    )
                if end < start:
                    report.add(
                        "xrel-regions",
                        f"{table} row has inverted region "
                        f"[{start}, {end}]",
                    )
        # Element regions must be well nested: in start order, each
        # region either nests inside the innermost open one or begins
        # after it closes — and attributes must sit inside an element.
        elements = self.db.query(
            "SELECT start, end FROM xrel_element "
            "WHERE doc_id = ? ORDER BY start",
            (doc_id,),
        )
        report.ran("xrel-nesting")
        stack: list[tuple[int, int]] = []
        for start, end in elements:
            while stack and stack[-1][1] < start:
                stack.pop()
            if stack and end > stack[-1][1]:
                report.add(
                    "xrel-nesting",
                    f"element region [{start}, {end}] crosses open "
                    f"region [{stack[-1][0]}, {stack[-1][1]}]",
                )
                continue
            stack.append((start, end))
        report.ran("xrel-attribute-containment")
        attributes = self.db.query(
            "SELECT start, end FROM xrel_attribute "
            "WHERE doc_id = ? ORDER BY start",
            (doc_id,),
        )
        # One merged sweep in start order: elements (which open first at
        # equal starts) push regions, attributes check the innermost.
        events = sorted(
            [(s, 0, e) for s, e in elements]
            + [(s, 1, e) for s, e in attributes]
        )
        stack = []
        for start, is_attr, end in events:
            while stack and stack[-1] < start:
                stack.pop()
            if is_attr:
                if not stack or end > stack[-1]:
                    report.add(
                        "xrel-attribute-containment",
                        f"attribute region [{start}, {end}] lies in no "
                        "element region",
                    )
            else:
                stack.append(end)

    def translator(self):
        from repro.query.translate_xrel import XRelTranslator

        return XRelTranslator(self)
