"""The inlining :class:`~repro.storage.base.MappingScheme`.

One scheme instance serves one DTD (persisted in ``inline_schema`` so a
reopened database rebuilds the identical mapping).  Stored documents must
conform to that DTD's data-centric subset: element or PCDATA content (no
mixed-with-elements models), no comments or processing instructions, and
child multiplicities within the simplified quantifiers.  Violations raise
:class:`~repro.errors.SchemaMappingError`/``StorageError`` at store time
rather than silently corrupting the mapping.
"""

from __future__ import annotations

from operator import itemgetter

from repro.errors import SchemaMappingError, StorageError
from repro.relational.database import Database
from repro.relational.schema import Column, INTEGER, Table, TEXT, quote_identifier
from repro.storage.base import BufferedStreamInserter, MappingScheme
from repro.storage.inlining.graph import SHARED, STRATEGIES
from repro.storage.inlining.mapping import (
    InlinedPosition,
    Mapping,
    build_mapping,
)
from repro.storage.numbering import NodeRecord
from repro.xml.chars import is_whitespace
from repro.xml.dom import NodeKind
from repro.xml.dtd import Dtd, dtd_to_text, parse_dtd

SCHEMA_TABLE = Table(
    name="inline_schema",
    columns=[
        Column("schema_id", INTEGER, primary_key=True),
        Column("strategy", TEXT, nullable=False),
        Column("root_name", TEXT),
        Column("dtd_text", TEXT, nullable=False),
    ],
)


class InliningScheme(MappingScheme):
    """DTD-driven shared/hybrid inlining."""

    name = "inlining"

    #: Insignificant whitespace text is (legitimately) not stored, so
    #: fetched rows may undercount the catalog's node count.
    lossless_node_count = False

    def __init__(
        self,
        db: Database,
        dtd: Dtd | None = None,
        strategy: str = SHARED,
    ) -> None:
        if strategy not in STRATEGIES:
            raise SchemaMappingError(f"unknown inlining strategy: {strategy}")
        if strategy == "basic":
            raise SchemaMappingError(
                "the basic strategy is structural-comparison only "
                "(see experiment E9); store with 'shared' or 'hybrid'"
            )
        self._dtd = dtd
        self.strategy = strategy
        self.mapping: Mapping | None = None
        super().__init__(db)

    # -- schema ----------------------------------------------------------------

    def tables(self) -> list[Table]:
        tables = [SCHEMA_TABLE]
        if self.mapping is not None:
            tables += [r.table for r in self.mapping.relations.values()]
        return tables

    def create_schema(self) -> None:
        self.db.create_table(SCHEMA_TABLE)
        if self._dtd is None:
            self._load_persisted_schema()
        else:
            self._install_dtd(self._dtd)
        if self.mapping is not None:
            for relation in self.mapping.relations.values():
                self.db.create_table(relation.table)

    def _load_persisted_schema(self) -> None:
        row = self.db.query_one(
            "SELECT strategy, root_name, dtd_text FROM inline_schema "
            "ORDER BY schema_id LIMIT 1"
        )
        if row is None:
            return  # no DTD yet; store() will demand one
        strategy, root_name, dtd_text = row
        self.strategy = strategy
        dtd = parse_dtd(dtd_text, root_name=root_name)
        self._dtd = dtd
        self.mapping = build_mapping(dtd, strategy)

    def _install_dtd(self, dtd: Dtd) -> None:
        persisted = self.db.query_one(
            "SELECT strategy, root_name, dtd_text FROM inline_schema "
            "ORDER BY schema_id LIMIT 1"
        )
        if persisted is None:
            self.db.execute(
                "INSERT INTO inline_schema (strategy, root_name, dtd_text) "
                "VALUES (?, ?, ?)",
                (self.strategy, dtd.root_name, dtd_to_text(dtd)),
            )
        elif (persisted[0], persisted[2]) != (
            self.strategy, dtd_to_text(dtd)
        ):
            raise SchemaMappingError(
                "database already holds a different inlining schema"
            )
        self.mapping = build_mapping(dtd, self.strategy)

    def require_mapping(self) -> Mapping:
        if self.mapping is None:
            raise SchemaMappingError(
                "no DTD installed: construct InliningScheme with a dtd"
            )
        return self.mapping

    # -- shredding ------------------------------------------------------------------

    def stream_inserter(self, doc_id):
        # A relation row gathers an element's inlined descendants, so it
        # is complete only once the element's whole subtree has arrived.
        return BufferedStreamInserter(self, doc_id, self._insert_all)

    def _insert_all(
        self,
        doc_id: int,
        records: list[NodeRecord],
        contents: dict[int, str],
    ) -> dict[str, int]:
        mapping = self.require_mapping()
        children: dict[int, list[NodeRecord]] = {}
        for record in records:
            if record.kind in (
                NodeKind.COMMENT, NodeKind.PROCESSING_INSTRUCTION
            ):
                raise StorageError(
                    "inlining stores data-centric documents only "
                    "(no comments/processing instructions)"
                )
            children.setdefault(record.parent_pre, []).append(record)
        # Document-level text never gets here (the shredder rejects it),
        # so every root-level record is an element.
        roots = children[0]
        if len(roots) != 1:
            raise StorageError(
                f"document has {len(roots)} element children, expected 1"
            )
        root = roots[0]
        if mapping.relation_of(root.name) is None:
            raise SchemaMappingError(
                f"document root {root.name!r} has no relation in the mapping"
            )
        rows: dict[str, list[dict[str, object]]] = {}

        def store_instance(element: NodeRecord) -> None:
            relation = mapping.relations[element.name]
            row: dict[str, object] = {
                "doc_id": doc_id,
                "parent_pre": element.parent_pre,
                "ordinal": element.ordinal,
            }
            fill_position(relation.root, element, row)
            rows.setdefault(relation.table.name, []).append(row)

        def fill_position(
            position: InlinedPosition, element: NodeRecord, row: dict
        ) -> None:
            row[position.pre_column] = element.pre
            kids = children.get(element.pre, ())
            self._fill_text(
                position, element,
                [k for k in kids if k.kind == NodeKind.TEXT], row,
            )
            for child in kids:
                if child.kind == NodeKind.TEXT:
                    continue
                if child.kind == NodeKind.ATTRIBUTE:
                    self._fill_attribute(position, element, child, row)
                    continue
                name = child.name
                if name in position.inlined_children:
                    child_position = mapping.relations[
                        position.relation_element
                    ].positions[position.inlined_children[name]]
                    if row.get(child_position.pre_column) is not None:
                        raise StorageError(
                            f"element {element.name!r} has multiple "
                            f"{name!r} children but the DTD allows one"
                        )
                    fill_position(child_position, child, row)
                elif name in position.relation_children:
                    store_instance(child)
                elif mapping.relation_of(name) is not None and (
                    self._allows_any(position.element)
                ):
                    store_instance(child)
                else:
                    raise SchemaMappingError(
                        f"child {name!r} of {position.element!r} is not "
                        "allowed by the installed DTD"
                    )

        store_instance(root)
        row_counts: dict[str, int] = {}
        for table_name, table_rows in rows.items():
            relation = next(
                r for r in mapping.relations.values()
                if r.table.name == table_name
            )
            columns = relation.table.column_names
            self.db.executemany(
                f"INSERT INTO {quote_identifier(table_name)} "
                f"({', '.join(columns)}) VALUES "
                f"({', '.join('?' for _ in columns)})",
                [
                    tuple(row.get(column) for column in columns)
                    for row in table_rows
                ],
            )
            row_counts[table_name] = len(table_rows)
        return row_counts

    def _allows_any(self, element: str) -> bool:
        mapping = self.require_mapping()
        return mapping.dtd.elements[element].model.is_any

    def _fill_text(
        self,
        position: InlinedPosition,
        element: NodeRecord,
        texts: list[NodeRecord],
        row: dict,
    ) -> None:
        if position.content_column is None:
            if not all(is_whitespace(t.value or "") for t in texts):
                raise SchemaMappingError(
                    f"element {element.name!r} carries text but its model "
                    f"({position.element}) has element content"
                )
            return
        if texts:
            row[position.content_column] = "".join(
                t.value or "" for t in texts
            )
            row[position.content_pre_column] = texts[0].pre

    def _fill_attribute(
        self,
        position: InlinedPosition,
        element: NodeRecord,
        attribute: NodeRecord,
        row: dict,
    ) -> None:
        columns = position.attr_columns.get(attribute.name)
        if columns is None:
            raise SchemaMappingError(
                f"attribute {attribute.name!r} of {element.name!r} "
                "is not declared in the installed DTD"
            )
        val_column, pre_column = columns
        row[val_column] = attribute.value
        row[pre_column] = attribute.pre

    # -- retrieval --------------------------------------------------------------------

    def fetch_records(self, doc_id: int) -> list[tuple]:
        # Inlined rows have no subtree handle: whatever is asked for,
        # every relation of the mapping is read.  Each relation's
        # positions are resolved to row indexes once; the nodes of all
        # relations then merge into document order by one sort on pre.
        element_kind = int(NodeKind.ELEMENT)
        attribute_kind = int(NodeKind.ATTRIBUTE)
        text_kind = int(NodeKind.TEXT)
        rows: list[tuple] = []
        for relation in self.require_mapping().relations.values():
            columns = relation.table.column_names
            at = {column: index for index, column in enumerate(columns)}
            # (pre index, parent-pre index, kind, name, value index)
            plan: list[tuple] = []
            for position in relation.positions.values():
                pre_at = at[position.pre_column]
                parent_at = (
                    at["parent_pre"] if position.is_root
                    else at[relation.positions[position.path[:-1]].pre_column]
                )
                plan.append(
                    (pre_at, parent_at, element_kind, position.element, None)
                )
                for name, (val_col, pre_col) in position.attr_columns.items():
                    plan.append(
                        (at[pre_col], pre_at, attribute_kind, name,
                         at[val_col])
                    )
                if position.content_column is not None:
                    plan.append(
                        (at[position.content_pre_column], pre_at, text_kind,
                         None, at[position.content_column])
                    )
            for values in self.db.query(
                f"SELECT {', '.join(columns)} "
                f"FROM {quote_identifier(relation.table.name)} "
                "WHERE doc_id = ?",
                (doc_id,),
            ):
                for pre_at, parent_at, kind, name, value_at in plan:
                    pre = values[pre_at]
                    if pre is not None:  # optional positions may be absent
                        rows.append((
                            0, pre, values[parent_at], kind, name,
                            None if value_at is None else values[value_at],
                        ))
        rows.sort(key=itemgetter(1))
        return rows

    def _delete_rows(self, doc_id: int) -> None:
        mapping = self.require_mapping()
        for relation in mapping.relations.values():
            self.db.execute(
                f"DELETE FROM {quote_identifier(relation.table.name)} "
                "WHERE doc_id = ?",
                (doc_id,),
            )

    def _audit_document(self, doc_id, record, report, records) -> None:
        report.ran("inline-schema")
        if self.mapping is None:
            report.add("inline-schema", "no DTD mapping installed")
            return
        persisted = self.db.query_one(
            "SELECT strategy FROM inline_schema ORDER BY schema_id LIMIT 1"
        )
        if persisted is None:
            report.add(
                "inline-schema",
                "mapping in memory but no persisted inline_schema row",
            )
        # Every relation row must anchor to a known parent: parent_pre 0
        # (the root's holder) or the pre of a stored element.
        report.ran("inline-parents")
        known = {row[1] for row in records}
        for relation in self.mapping.relations.values():
            rows = self.db.query(
                f"SELECT {relation.root.pre_column}, parent_pre "
                f"FROM {quote_identifier(relation.table.name)} "
                "WHERE doc_id = ?",
                (doc_id,),
            )
            for pre, parent_pre in rows:
                if parent_pre and parent_pre not in known:
                    report.add(
                        "inline-parents",
                        f"row {pre} of {relation.table.name} references "
                        f"missing parent {parent_pre}",
                    )

    def translator(self):
        from repro.query.translate_inlining import InliningTranslator

        return InliningTranslator(self)
