"""The storage-scheme interface all mappings implement.

A :class:`MappingScheme` owns a set of relations inside one
:class:`~repro.relational.database.Database` and knows how to:

* ``store`` a document (shred it into rows),
* publish a document or any subtree back out of its rows — as a token
  stream, as XML text (``reconstruct_xml`` / ``query_xml``) or as a tree
  (``reconstruct`` / ``query_nodes``),
* ``delete`` a stored document,
* translate the XPath subset to SQL over its relations (via
  :meth:`translator`), returning matching nodes as their ``pre`` numbers
  — the scheme-independent node ids from
  :mod:`repro.storage.numbering`.

The shared ``pre`` ids are what make differential testing and the
benchmark suite scheme-agnostic: every scheme answers the same query with
the same set of integers.
"""

from __future__ import annotations

import abc
import json
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import ClassVar

from repro.errors import StorageError, UnsupportedQueryError
from repro.relational.catalog import Catalog, DocumentRecord
from repro.relational.database import Database
from repro.relational.schema import Column, INTEGER, Index, Table, TEXT
from repro.reliability.audit import IntegrityReport
from repro.storage.numbering import (
    NodeRecord,
    records_to_events,
    shred_into,
    write_records,
)
from repro.xml.dom import Document, Node, NodeKind
from repro.xml.events import (
    Event,
    build_fragment,
    build_tree,
    stream_events,
)


#: The subtree roots of a batched fetch as a relation, bound as one JSON
#: array (:func:`roots_param`): one statement with one SQL text for any
#: root count, sqlite's bind-variable limit included.  Needs JSON1.
ROOTS = "SELECT value FROM json_each(?)"


def roots_param(pres: list[int]) -> str:
    """The one bind value of :data:`ROOTS`."""
    return json.dumps(pres)


def carve_subtrees(rows: list[tuple], pres: list[int]) -> list[tuple]:
    """Carve the subtrees rooted at *pres* out of one document's
    :meth:`MappingScheme.fetch_records` rows, in one pass: a node is in
    a root's subtree when it is that root or its parent is in it, and
    document order delivers every parent before its children."""
    wanted = set(pres)
    element_kind = int(NodeKind.ELEMENT)
    holders: dict[int, tuple[int, ...]] = {}  # element pre → roots over it
    runs: dict[int, list[tuple]] = {}
    for _, pre, parent_pre, kind, name, value in rows:
        roots = holders.get(parent_pre, ())
        if pre in wanted:
            roots += (pre,)
            runs[pre] = []
        if roots:
            if kind == element_kind:
                holders[pre] = roots
            for root in roots:
                runs[root].append(
                    (root, pre, parent_pre, kind, name, value)
                )
    return [row for run in runs.values() for row in run]


def _build_run(run) -> Node:
    """One subtree's run of rows as a tree: the tree lane of publishing
    (``query_nodes``, ``reconstruct_subtrees``)."""
    return build_fragment(records_to_events(run))


@dataclass(frozen=True)
class ShredResult:
    """Outcome of storing one document."""

    doc_id: int
    node_count: int
    row_counts: dict[str, int]

    @property
    def total_rows(self) -> int:
        return sum(self.row_counts.values())


#: Rows buffered per streaming-insert flush (one ``executemany`` each).
STREAM_BATCH = 2048


class StreamInserter:
    """Per-scheme sink for :func:`~repro.storage.numbering.shred_into`.

    ``store_stream`` drives one of these per document: :meth:`enter` at
    every element start tag (pre order — the hook order-sensitive side
    tables need), :meth:`add` at every node completion, :meth:`finish`
    once the stream is exhausted.  True-streaming schemes buffer at most
    :data:`STREAM_BATCH` rows; schemes whose row layout needs the whole
    document (universal's leaf chains, inlining's DTD walk) use
    :class:`BufferedStreamInserter` instead.
    """

    #: True for inserters whose :meth:`enter` does real work (binary's
    #: partition registry, the :class:`PathDictionary`).  ``store_stream``
    #: skips the call entirely when False — one fewer no-op method call
    #: per element on the hot path.
    needs_enter = False

    def __init__(self, scheme: "MappingScheme", doc_id: int) -> None:
        self.scheme = scheme
        self.doc_id = doc_id

    def enter(self, pre: int, name: str, parent_pre: int) -> None:
        """An element opened (called in pre order, before its rows)."""

    def add(self, record: NodeRecord, content: str | None) -> None:
        """One completed node (elements arrive in post order)."""
        raise NotImplementedError

    def finish(self) -> dict[str, int]:
        """Flush remaining rows; return per-table inserted-row counts —
        the accounting that feeds :class:`ShredResult` without
        rescanning any table."""
        raise NotImplementedError


class BufferedStreamInserter(StreamInserter):
    """Inserter for schemes whose rows need global context: collect
    every record, then hand the whole set to *insert_all(doc_id,
    records, contents)* — *records* sorted into pre order (elements
    arrive at their end tag), *contents* the shredder's element-content
    cache keyed by ``pre``: ``""`` for a childless element, the text of
    a text-only one, no entry otherwise.

    Memory is O(document) — the records and what *insert_all* builds
    from them — the price of such layouts; it is still one pass over
    the input.
    """

    def __init__(
        self, scheme: "MappingScheme", doc_id: int, insert_all
    ) -> None:
        super().__init__(scheme, doc_id)
        self._insert_all = insert_all
        self._records: list[NodeRecord] = []
        self._contents: dict[int, str] = {}

    def add(self, record: NodeRecord, content: str | None) -> None:
        self._records.append(record)
        if content is not None:
            self._contents[record.pre] = content

    def finish(self) -> dict[str, int]:
        self._records.sort(key=lambda r: r.pre)
        return self._insert_all(self.doc_id, self._records, self._contents)


class PathDictionary:
    """The shred lane's label-path dictionary: every distinct
    root-to-node label path of one document (or of one inserted
    fragment), numbered by first sighting.

    A path is a tuple of labels — element tags, attributes as
    ``@name`` — and ``()`` is the document node (or the point an
    inserted fragment is grafted at).  :meth:`enter` has the
    :meth:`StreamInserter.enter` signature, so it plugs straight into
    :func:`~repro.storage.numbering.shred_into`: element paths are
    numbered in pre order.  Only the open elements are kept, and a
    completed one is dropped at the next call that reaches past it, so
    callers never pop.  XRel numbers its ``xrel_paths`` from it; edge
    and binary persist its element paths as their
    :class:`LabelPathCatalog`.
    """

    def __init__(self) -> None:
        self.ids: dict[tuple[str, ...], int] = {}
        # (pre, path) of the open elements, innermost last; pre 0 is
        # the document (a fragment's top-level nodes have parent 0).
        self._open: list[tuple[int, tuple[str, ...]]] = [(0, ())]

    def id_of(self, path: tuple[str, ...]) -> int:
        """The number of *path*, issuing the next one at first sight."""
        pid = self.ids.get(path)
        if pid is None:
            pid = self.ids[path] = len(self.ids) + 1
        return pid

    def path_of(self, pre: int) -> tuple[str, ...]:
        """The label path of the open element *pre* (0: the document)."""
        open_ = self._open
        while open_[-1][0] != pre:
            open_.pop()
        return open_[-1][1]

    def enter(self, pre: int, name: str, parent_pre: int) -> None:
        """Element *pre* opened below *parent_pre*: number its path."""
        path = self.path_of(parent_pre) + (name,)
        self.id_of(path)
        self._open.append((pre, path))


def label_paths_table(name: str) -> Table:
    """The relation of a :class:`LabelPathCatalog`: one trie node per
    element label path of each document, ``parent_id`` 0 at the root."""
    return Table(
        name=name,
        columns=[
            Column("id", INTEGER, primary_key=True, autoincrement=True),
            Column("doc_id", INTEGER, nullable=False),
            Column("parent_id", INTEGER, nullable=False),
            Column("label", TEXT, nullable=False),
        ],
        indexes=[Index(f"{name}_doc", name, ("doc_id",))],
    )


class LabelPathCatalog:
    """Every distinct element label path of each stored document, as
    the edge-shaped mappings record it while they shred (DESIGN §7).

    The rows form one trie per document.  Ids are store-wide and never
    reused, so the largest id ever issued (:meth:`version`) grows with
    every recorded path: a plan expanded over the catalog is stale
    exactly when the version moved past the one it was built at.  The
    catalog is a *superset* of the stored paths — a deleted subtree
    leaves its paths behind, which only adds arms that find nothing;
    a deleted document takes its rows along.

    *relation* is the scheme's edge-shaped relation (``edge``, binary's
    ``binary_edges`` view), read to find where an inserted fragment
    hangs.
    """

    def __init__(self, scheme: "MappingScheme", table: Table,
                 relation: str) -> None:
        self.db = scheme.db
        self.scheme_name = scheme.name
        self.table = table
        self.relation = relation
        #: ``(version, paths)`` of the last :meth:`snapshot`.
        self._snapshot: tuple[int, tuple | None] | None = None

    def version(self) -> int:
        """The largest id ever issued (0 before the first path)."""
        return self.db.scalar(
            "SELECT seq FROM sqlite_sequence WHERE name = ?",
            (self.table.name,),
        ) or 0

    def record(self, doc_id: int, paths: PathDictionary) -> int:
        """Persist a freshly shredded document's element paths (inside
        the store's transaction); returns the rows written."""
        ids = paths.ids
        if ids:
            base = self.version()
            self.db.executemany(
                f"INSERT INTO {self.table.name} "
                "(id, doc_id, parent_id, label) VALUES (?, ?, ?, ?)",
                [
                    (base + pid, doc_id,
                     base + ids[path[:-1]] if len(path) > 1 else 0,
                     path[-1])
                    for path, pid in ids.items()
                ],
            )
        return len(ids)

    def _paths_by_id(
        self, where: str = "", params: tuple = ()
    ) -> dict[int, tuple[str, ...]] | None:
        """Id → label path of the rows *where* selects, or ``None`` when
        a row's parent is missing (rows removed by hand)."""
        by_id: dict[int, tuple[str, ...]] = {0: ()}
        for pid, parent, label in self.db.query(
            f"SELECT id, parent_id, label FROM {self.table.name} {where} "
            "ORDER BY id",
            params,
        ):
            prefix = by_id.get(parent)
            if prefix is None:
                return None
            by_id[pid] = prefix + (label,)
        del by_id[0]
        return by_id

    def graft(self, doc_id: int, parent_pre: int,
              fragment: PathDictionary) -> None:
        """Add the element paths of a fragment inserted below element
        *parent_pre*: the fragment's own paths, rooted at the parent's
        label path.  A document with no catalog rows (stored before the
        catalog existed) is left without, so it keeps the closure."""
        by_id = self._paths_by_id("WHERE doc_id = ?", (doc_id,))
        if not by_id or not fragment.ids:
            return
        ids = {path: pid for pid, path in by_id.items()}
        parent_path = tuple(
            label for (label,) in self.db.query(
                f"""
                WITH RECURSIVE up(source, label, depth) AS (
                  SELECT source, label, 0 FROM {self.relation}
                  WHERE doc_id = ? AND target = ?
                  UNION ALL
                  SELECT e.source, e.label, up.depth + 1
                  FROM {self.relation} e JOIN up ON e.target = up.source
                  WHERE e.doc_id = ?
                )
                SELECT label FROM up ORDER BY depth DESC
                """,
                (doc_id, parent_pre, doc_id),
            )
        )
        for path in fragment.ids:
            full = parent_path + path
            # Every missing prefix, parents first: the trie stays whole
            # even where the parent's own path was never recorded.
            for depth in range(1, len(full) + 1):
                prefix = full[:depth]
                if prefix not in ids:
                    ids[prefix] = self.db.execute(
                        f"INSERT INTO {self.table.name} "
                        "(doc_id, parent_id, label) VALUES (?, ?, ?)",
                        (doc_id, ids.get(prefix[:-1], 0), prefix[-1]),
                    ).lastrowid

    def delete(self, doc_id: int) -> None:
        self.db.execute(
            f"DELETE FROM {self.table.name} WHERE doc_id = ?", (doc_id,)
        )

    def snapshot(self) -> tuple[int, tuple | None]:
        """``(version, paths)``: the union of every stored document's
        element label paths, sorted, or ``None`` for paths while some
        document of this scheme has no rows (a file written before the
        catalog existed) — expansion then keeps the closure.  Reloaded
        only when the version moved."""
        version = self.version()
        cached = self._snapshot
        if cached is not None and cached[0] == version:
            return cached
        missing = self.db.query_one(
            "SELECT 1 FROM xmlrel_documents d WHERE d.scheme = ? "
            f"AND NOT EXISTS (SELECT 1 FROM {self.table.name} p "
            "WHERE p.doc_id = d.doc_id) LIMIT 1",
            (self.scheme_name,),
        )
        by_id = self._paths_by_id() if missing is None else None
        paths = None if by_id is None else tuple(sorted(set(by_id.values())))
        self._snapshot = (version, paths)
        return self._snapshot


class MappingScheme(abc.ABC):
    """Abstract base of all XML→relational mappings."""

    #: Registry name of the scheme (e.g. ``"edge"``).
    name: ClassVar[str] = ""

    #: Whether the scheme stores every numbered node (the audit then
    #: demands an exact catalog count match).  Inlining legitimately
    #: drops insignificant whitespace text, so it stores fewer rows
    #: than the catalog's node count and sets this False.
    lossless_node_count: ClassVar[bool] = True

    #: Whether XPath→SQL translation consults *stored data* (universal's
    #: label columns, binary's partition tables, the label paths edge
    #: and binary expand ``//`` over) rather than being a pure
    #: function of the XPath.  Such schemes must invalidate cached plans
    #: whenever a store/delete/update can change that data — see
    #: :meth:`invalidate_plans`.
    translation_depends_on_data: ClassVar[bool] = False

    def __init__(self, db: Database) -> None:
        self.db = db
        self.catalog = Catalog(db)
        #: Generation counter mixed into every plan-cache key.  Bumping
        #: it (see :meth:`invalidate_plans`) makes all older cached
        #: translations for this scheme unreachable.
        self.plan_epoch = 0
        #: Set by :class:`BulkSession` so corpus loads pay one ANALYZE
        #: at session close instead of one per document.
        self._defer_analyze = False
        #: Optional :class:`~repro.analysis.xpathlint.XPathAnalyzer`
        #: consulted by the translator for unsatisfiable-query pruning
        #: (see :meth:`attach_analyzer`).
        self.analyzer = None
        #: The :class:`LabelPathCatalog` ``//`` expansion reads, on the
        #: mappings that record one while they shred (edge, binary).
        self.label_paths: LabelPathCatalog | None = None
        self.create_schema()

    # -- schema ----------------------------------------------------------------

    @abc.abstractmethod
    def tables(self) -> list[Table]:
        """The relations of this mapping (static part; some schemes add
        per-label or per-DTD tables dynamically)."""

    def create_schema(self) -> None:
        """Create all (static) relations and their indexes."""
        for table in self.tables():
            self.db.create_table(table)

    def table_names(self) -> list[str]:
        """Names of this scheme's tables that currently exist."""
        return [
            t.name for t in self.tables() if self.db.table_exists(t.name)
        ]

    # -- storing ----------------------------------------------------------------

    def store(self, document: Document, name: str = "document") -> ShredResult:
        """Shred a parsed *document* into rows: :meth:`store_stream`
        over its replayed token stream."""
        return self.store_stream(stream_events(document), name)

    @abc.abstractmethod
    def stream_inserter(self, doc_id: int) -> StreamInserter:
        """The row sink for one document.

        Schemes with a one-record-one-row layout return a
        constant-memory inserter; those whose rows span the whole
        record set (universal, inlining) return a
        :class:`BufferedStreamInserter`.
        """

    def store_stream(
        self, events, name: str = "document"
    ) -> ShredResult:
        """Shred an event stream into rows as it is parsed.

        *events* is any :class:`~repro.xml.events.Event` iterable —
        usually :func:`repro.xml.events.parse_events` over text or a
        file, in which case parsing, numbering and insertion all
        interleave and (for schemes with a streaming inserter) peak
        memory is O(depth) + one row batch, independent of document
        size.  The catalog row registers first and commits or rolls
        back with the node rows: a fault mid-shred must never leave a
        catalog entry pointing at a partial document.
        """
        tracer = self.db.tracer
        with tracer.span("store") as span:
            if span:
                span.set(scheme=self.name, document=name)
            with tracer.span("stream_shred"):
                with self.db.transaction():
                    doc_id = self.catalog.register(name, self.name, "", 0)
                    inserter = self.stream_inserter(doc_id)
                    node_count, root_tag = shred_into(
                        events,
                        inserter.add,
                        inserter.enter if inserter.needs_enter else None,
                    )
                    if node_count == 0:
                        raise StorageError(
                            "refusing to store an empty document"
                        )
                    row_counts = inserter.finish()
                    self.catalog.finalize(doc_id, root_tag, node_count)
            if self.translation_depends_on_data:
                self.invalidate_plans()
            # Refresh planner statistics: several translations (XRel's
            # path-table-driven plans in particular) rely on the
            # optimizer knowing the relative table sizes.  A bulk-load
            # session defers this to its close.
            if not self._defer_analyze:
                with tracer.span("analyze"):
                    self.db.analyze()
            if span:
                span.set(
                    doc_id=doc_id, nodes=node_count,
                    rows=sum(row_counts.values()),
                )
                tracer.metrics.counter("store.documents").inc()
                tracer.metrics.counter("store.nodes_shredded").inc(
                    node_count
                )
            return ShredResult(doc_id, node_count, row_counts)

    # -- retrieval -----------------------------------------------------------------
    #
    # Publishing is the reverse of store_stream: the scheme yields its
    # stored rows in document order, one run per root, and each run has
    # one reader per output.  Text (reconstruct_xml, query_xml) is
    # write_records, one loop from rows to XML; a tree (reconstruct,
    # query_nodes) is records_to_events into build_tree /
    # build_fragment, the builder the parser shares.  Both walks live in
    # storage/numbering.py and reject the same rows alike.

    @abc.abstractmethod
    def fetch_records(self, doc_id: int) -> list[tuple]:
        """Every stored node of the document as ``(0, pre, parent_pre,
        kind, name, value)`` rows in document order (``parent_pre`` 0
        for top-level nodes) — one run for
        :func:`~repro.storage.numbering.records_to_events`, and the row
        source of the integrity audit."""

    def fetch_records_many(
        self, doc_id: int, pres: list[int]
    ) -> list[tuple]:
        """The stored nodes of the subtrees rooted at *pres* as ``(root,
        pre, parent_pre, kind, name, value)`` rows: one contiguous run
        per root, each in document order starting with the root itself.
        Roots with no stored node contribute nothing; roots may nest — a
        node then appears once under every enclosing root.

        Schemes with a subtree handle (a region, a label prefix, a
        parent→child closure) override this with one statement over
        :data:`ROOTS`; binary and inlining with one statement for the
        roots and one per level below them; universal, which has none,
        with its whole per-path read, publishing only the leaf chains
        through a root.  This default carves every root out of the
        whole document in one pass: inlining takes it for roots that
        are not a relation row of their own.
        """
        if not pres:
            return []
        return carve_subtrees(self.fetch_records(doc_id), pres)

    def publish_events(self, doc_id: int) -> Iterator[Event]:
        """The stored document as a token stream (what
        :meth:`store_stream` consumed, minus the document markers)."""
        return records_to_events(self._document_rows(doc_id))

    def _document_rows(self, doc_id: int) -> list[tuple]:
        self.catalog.get(doc_id)  # raises DocumentNotFoundError if absent
        rows = self.fetch_records(doc_id)
        if not rows:
            raise StorageError(f"document {doc_id} has no stored rows")
        return rows

    def reconstruct(self, doc_id: int) -> Document:
        """Rebuild the full document from its rows."""
        return build_tree(self.publish_events(doc_id))

    def reconstruct_xml(self, doc_id: int) -> str:
        """The full document as XML text, straight from its rows."""
        return write_records(self._document_rows(doc_id))

    def _publish_subtrees(
        self, doc_id: int, pres: list[int], publish, span=None
    ):
        """``publish(run)`` of each subtree rooted at *pres*, in *pres*
        order, through one batched fetch (none for no roots).  A live
        *span* gets ``rows``, the number of rows fetched."""
        rows = (
            self.fetch_records_many(doc_id, list(dict.fromkeys(pres)))
            if pres else []
        )
        if span:
            span.set(rows=len(rows))
        published = {
            root: publish(run) for root, run in groupby(rows, itemgetter(0))
        }
        try:
            return [published[pre] for pre in pres]
        except KeyError as missing:
            raise StorageError(
                f"no stored node with pre={missing.args[0]} in "
                f"document {doc_id}"
            ) from None

    def reconstruct_subtree(self, doc_id: int, pre: int) -> Node:
        """Rebuild the subtree rooted at node *pre*."""
        return self.reconstruct_subtrees(doc_id, [pre])[0]

    def reconstruct_subtrees(
        self, doc_id: int, pres: list[int]
    ) -> list[Node]:
        """Rebuild many subtrees through one batched fetch: the
        round-trip count does not grow with ``len(pres)``."""
        return self._publish_subtrees(doc_id, pres, _build_run)

    # -- deletion -----------------------------------------------------------------------

    def delete_document(self, doc_id: int) -> None:
        """Remove all rows of *doc_id* and its catalog entry —
        atomically, so a fault mid-delete leaves the document fully
        present (rows *and* catalog entry)."""
        self.catalog.get(doc_id)
        with self.db.transaction():
            self._delete_rows(doc_id)
            if self.label_paths is not None:
                self.label_paths.delete(doc_id)
            self.catalog.remove(doc_id)
        if self.translation_depends_on_data:
            self.invalidate_plans()

    @abc.abstractmethod
    def _delete_rows(self, doc_id: int) -> None:
        """Delete the scheme's rows for one document."""

    # -- querying ------------------------------------------------------------------------

    @abc.abstractmethod
    def translator(self):
        """The XPath→SQL translator for this scheme
        (:class:`repro.query.translator.BaseTranslator`)."""

    def attach_analyzer(self, analyzer) -> None:
        """Attach an XPath static analyzer to this scheme.

        Once attached, :meth:`query_pres` short-circuits queries the
        analyzer proves unsatisfiable (zero SQL statements executed).
        ``//`` expansion needs no analyzer: it reads the store's own
        :attr:`label_paths`.  The epoch bump here retires plans analyzed
        by a previous analyzer.
        """
        self.analyzer = analyzer
        self.invalidate_plans()

    def invalidate_plans(self) -> None:
        """Make every cached translation for this scheme unreachable.

        Bumps :attr:`plan_epoch`, which is part of every plan-cache key;
        the LRU bound ages the stale entries out.  Called automatically
        on stores/deletes/updates when :attr:`translation_depends_on_data`
        is set — universal translations bake in the known label columns,
        binary translations the known partition tables and edge and
        binary ``//`` expansions the known label paths, so a cached plan
        could otherwise miss data added after it was rendered.
        """
        self.plan_epoch += 1

    def query_pres(self, doc_id: int, xpath: str) -> list[int]:
        """Run an XPath query via SQL; return matching ``pre`` ids sorted
        in document order."""
        return self.translator().query_pres(doc_id, xpath)

    def query_nodes(self, doc_id: int, xpath: str) -> list[Node]:
        """Run an XPath query via SQL and rebuild each result node."""
        return self._query_published(doc_id, xpath, _build_run)

    def query_xml(self, doc_id: int, xpath: str) -> list[str]:
        """Run an XPath query via SQL and serialize each result node —
        rows to text in one loop, no tree and no token in between."""
        return self._query_published(doc_id, xpath, write_records)

    def _query_published(self, doc_id: int, xpath: str, publish):
        tracer = self.db.tracer
        with tracer.span("query.nodes") as span:
            pres = self.query_pres(doc_id, xpath)
            with tracer.span("reconstruct") as reconstruct_span:
                published = self._publish_subtrees(
                    doc_id, pres, publish, reconstruct_span
                )
                if reconstruct_span:
                    reconstruct_span.set(nodes=len(published), batched=True)
            if span:
                span.set(scheme=self.name, rows=len(published))
            return published

    # -- integrity audit --------------------------------------------------------------------

    def verify_document(self, doc_id: int) -> IntegrityReport:
        """Audit the stored invariants of document *doc_id*.

        The shredded-XML analogue of ``PRAGMA integrity_check``: the
        generic checks below (catalog consistency, unique/resolvable
        node ids, reconstructability) run for every scheme, then
        :meth:`_audit_document` adds the mapping-specific invariants
        (interval containment, Dewey prefix closure, edge connectivity,
        path referential integrity, ...).  Returns a structured
        :class:`~repro.reliability.audit.IntegrityReport`; auditing a
        corrupted document reports issues instead of raising.
        """
        record = self.catalog.get(doc_id)
        report = IntegrityReport(doc_id=doc_id, scheme=self.name)
        records = self._generic_audit(record, report)
        self._audit_document(doc_id, record, report, records)
        return report

    def _generic_audit(
        self, record: DocumentRecord, report: IntegrityReport
    ) -> list[tuple]:
        doc_id = record.doc_id
        report.ran("fetch")
        try:
            records = self.fetch_records(doc_id)
        except Exception as error:  # corrupt rows may break any layer
            report.add("fetch", f"fetching stored records failed: {error}")
            return []
        report.ran("catalog-count")
        mismatch = (
            len(records) != record.node_count
            if self.lossless_node_count
            else len(records) > record.node_count
        )
        if mismatch:
            report.add(
                "catalog-count",
                f"catalog records {record.node_count} nodes but "
                f"{len(records)} rows were fetched",
            )
        report.ran("unique-ids")
        pres = [row[1] for row in records]
        if len(set(pres)) != len(pres):
            seen: set[int] = set()
            duplicates = {p for p in pres if p in seen or seen.add(p)}
            report.add(
                "unique-ids",
                f"duplicate node ids: {sorted(duplicates)[:10]}",
            )
        report.ran("parents-resolve")
        known = set(pres)
        for _root, pre, parent_pre, *_node in records:
            if parent_pre and parent_pre not in known:
                report.add(
                    "parents-resolve",
                    f"node {pre} references missing parent {parent_pre}",
                )
        report.ran("reconstruct")
        if records and not report.failed("parents-resolve"):
            try:
                for _ in records_to_events(records):
                    pass
            except Exception as error:  # corrupt rows may break any layer
                report.add(
                    "reconstruct",
                    f"document does not rebuild from its rows: {error}",
                )
        elif not records:
            report.add("reconstruct", "document has no stored rows")
        return records

    def _audit_document(
        self,
        doc_id: int,
        record: DocumentRecord,
        report: IntegrityReport,
        records: list[tuple],
    ) -> None:
        """Scheme-specific invariant checks (override per mapping);
        *records* are the :meth:`fetch_records` rows."""

    # -- accounting -----------------------------------------------------------------------

    def storage_bytes(self) -> int:
        """Logical bytes across this scheme's tables (experiment E1)."""
        return self.db.database_bytes(
            name for name in self.table_names() if name != "xmlrel_documents"
        )

    def storage_cells(self) -> int:
        """Total row×column slots — the width/denormalization measure
        (experiment E1's second metric)."""
        return self.db.database_cells(
            name for name in self.table_names() if name != "xmlrel_documents"
        )

    def unsupported(self, feature: str) -> UnsupportedQueryError:
        """Build a scheme-tagged unsupported-feature error."""
        return UnsupportedQueryError(feature, scheme=self.name)


class BulkSession:
    """A corpus-load fast lane: many stores, one transaction, one ANALYZE.

    Per-document :meth:`MappingScheme.store` pays a COMMIT and an
    ``ANALYZE`` per document — fine for single documents, quadratic-feeling
    for corpus loads.  A bulk session wraps every store in one enclosing
    transaction (each store still gets its own savepoint) and defers the
    planner-statistics refresh to session close:

    .. code-block:: python

        with BulkSession(scheme) as session:
            for document in corpus:
                session.store(document, name)
        doc_ids = session.doc_ids

    The load is atomic: an exception inside the ``with`` block rolls back
    *every* document of the session (and the catalog rows with them).
    Row accounting comes from the insert side (see
    :meth:`StreamInserter.finish`), so closing a session never rescans
    any table.

    Secondary indexes are dropped for the session's duration and rebuilt
    in one pass at close — incremental b-tree maintenance per inserted
    row is the dominant cost of a bulk load, and a single post-load
    ``CREATE INDEX`` scan is far cheaper (it is also one long C call,
    so concurrent per-shard sessions overlap instead of trading the
    interpreter lock row by row).  Both the drop and the rebuild happen
    inside the session transaction, so a crash or error at any point
    rolls back to the fully-indexed pre-session state.
    """

    def __init__(self, scheme: MappingScheme) -> None:
        self.scheme = scheme
        self.results: list[ShredResult] = []
        self._txn = None
        self._deferred_indexes = []

    @property
    def doc_ids(self) -> list[int]:
        """Ids of the documents stored so far, in store order."""
        return [result.doc_id for result in self.results]

    def __enter__(self) -> "BulkSession":
        if self._txn is not None:
            raise StorageError("bulk session already active")
        self.scheme._defer_analyze = True
        self._txn = self.scheme.db.transaction()
        self._txn.__enter__()
        self._deferred_indexes = [
            index
            for table in self.scheme.tables()
            for index in table.indexes
            if not index.unique
        ]
        for index in self._deferred_indexes:
            self.scheme.db.execute(
                f'DROP INDEX IF EXISTS "{index.name}"'
            )
        return self

    def store(
        self, document: Document, name: str = "document"
    ) -> ShredResult:
        """Store one parsed document inside the session's transaction."""
        return self.store_stream(stream_events(document), name)

    def store_stream(self, events, name: str = "document") -> ShredResult:
        """Stream-shred one document inside the session's transaction
        (the per-shard corpus loader's write path: the store's inner
        transaction nests as a savepoint, ANALYZE stays deferred)."""
        if self._txn is None:
            raise StorageError(
                "bulk session is not active (use it as a context manager)"
            )
        result = self.scheme.store_stream(events, name)
        self.results.append(result)
        return result

    def __exit__(self, exc_type, exc, tb):
        txn, self._txn = self._txn, None
        self.scheme._defer_analyze = False
        if exc_type is None:
            tracer = self.scheme.db.tracer
            try:
                with tracer.span("index_rebuild"):
                    for index in self._deferred_indexes:
                        self.scheme.db.execute(index.ddl())
            except BaseException as rebuild_error:
                # A failed rebuild (e.g. injected crash) must still
                # roll the session back to the fully-indexed state.
                txn.__exit__(
                    type(rebuild_error), rebuild_error,
                    rebuild_error.__traceback__,
                )
                raise
        handled = txn.__exit__(exc_type, exc, tb)
        if exc_type is None:
            tracer = self.scheme.db.tracer
            with tracer.span("analyze"):
                self.scheme.db.analyze()
            if tracer.enabled:
                tracer.metrics.counter("bulk.sessions").inc()
                tracer.metrics.counter("bulk.documents").inc(
                    len(self.results)
                )
        return handled
