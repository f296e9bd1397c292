"""Persisted catalog of stored documents.

Every storage scheme shreds documents into its own relations, keyed by a
``doc_id`` issued here.  The catalog also records which scheme stored each
document so a store opened later can route queries correctly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DocumentNotFoundError
from repro.relational.database import Database
from repro.relational.schema import Column, INTEGER, Table, TEXT

CATALOG_TABLE = Table(
    name="xmlrel_documents",
    columns=[
        Column("doc_id", INTEGER, primary_key=True),
        Column("name", TEXT, nullable=False),
        Column("scheme", TEXT, nullable=False),
        Column("root_tag", TEXT, nullable=False),
        Column("node_count", INTEGER, nullable=False),
    ],
)


@dataclass(frozen=True)
class DocumentRecord:
    """Catalog row for one stored document."""

    doc_id: int
    name: str
    scheme: str
    root_tag: str
    node_count: int


class Catalog:
    """CRUD over the document catalog table."""

    def __init__(self, db: Database) -> None:
        self.db = db
        db.create_table(CATALOG_TABLE)

    def register(
        self, name: str, scheme: str, root_tag: str, node_count: int
    ) -> int:
        """Insert a catalog row and return the new doc_id."""
        cursor = self.db.execute(
            "INSERT INTO xmlrel_documents (name, scheme, root_tag, node_count) "
            "VALUES (?, ?, ?, ?)",
            (name, scheme, root_tag, node_count),
        )
        return int(cursor.lastrowid)

    def get(self, doc_id: int) -> DocumentRecord:
        row = self.db.query_one(
            "SELECT doc_id, name, scheme, root_tag, node_count "
            "FROM xmlrel_documents WHERE doc_id = ?",
            (doc_id,),
        )
        if row is None:
            raise DocumentNotFoundError(doc_id)
        return DocumentRecord(*row)

    def list(self, scheme: str | None = None) -> list[DocumentRecord]:
        sql = (
            "SELECT doc_id, name, scheme, root_tag, node_count "
            "FROM xmlrel_documents"
        )
        params: tuple = ()
        if scheme is not None:
            sql += " WHERE scheme = ?"
            params = (scheme,)
        sql += " ORDER BY doc_id"
        return [DocumentRecord(*row) for row in self.db.query(sql, params)]

    def remove(self, doc_id: int) -> None:
        self.get(doc_id)  # raise if absent
        self.db.execute(
            "DELETE FROM xmlrel_documents WHERE doc_id = ?", (doc_id,)
        )

    def finalize(
        self, doc_id: int, root_tag: str, node_count: int
    ) -> None:
        """Fill in the fields a streaming load only knows at the end.

        ``store_stream`` registers the catalog row first (so catalog
        row and node rows commit or roll back together) with
        placeholder root_tag/node_count, then patches them here once
        the stream is exhausted — all inside the same transaction.
        """
        self.db.execute(
            "UPDATE xmlrel_documents SET root_tag = ?, node_count = ? "
            "WHERE doc_id = ?",
            (root_tag, node_count, doc_id),
        )

    def update_node_count(self, doc_id: int, node_count: int) -> None:
        self.get(doc_id)
        self.db.execute(
            "UPDATE xmlrel_documents SET node_count = ? WHERE doc_id = ?",
            (node_count, doc_id),
        )
