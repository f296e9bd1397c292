"""Schema-catalog introspection for the SQL plan linter.

The plan linter (:mod:`repro.analysis.sqllint`) resolves every table and
column reference of a translated statement against what *actually
exists* in the database — including tables the schemes create
dynamically (universal's label columns, binary's partition tables,
inlining's per-DTD relations) which no static :class:`Table` definition
describes.  A :class:`SchemaCatalog` is therefore built from the live
connection via the sqlite PRAGMA surface, not from the scheme's table
list.

The database keeps one map of :class:`TableInfo` per ``PRAGMA
schema_version`` (sqlite bumps it on every DDL statement), filled a table
at a time (:meth:`repro.relational.database.Database.catalog_of`): a
translation snapshots only the tables its statement names, so its cost
grows with the statement, not with the database, and steady-state
translation pays one PRAGMA per render, not a re-introspection.
Introspection runs on the raw connection: it must never emit
``sql.statement`` spans, which the fast-path tests count per query.
"""

from __future__ import annotations

from dataclasses import dataclass

#: How deep into an index's column list a join column may sit and still
#: count as covered.  Every scheme's composite indexes lead with
#: ``doc_id`` (always bound by equality in generated plans), so the
#: second position is reachable; deeper columns are not.
INDEX_PREFIX_DEPTH = 2


@dataclass(frozen=True)
class TableInfo:
    """One table or view, as the linter sees it.

    Names are lower-cased: sqlite identifiers are case-insensitive and
    the translators are not required to match the DDL's casing.
    """

    name: str
    columns: frozenset[str]
    is_view: bool = False
    #: Columns within the first :data:`INDEX_PREFIX_DEPTH` positions of
    #: some index (or the primary key) — equality joins on these are
    #: index-accelerated.
    indexed_columns: frozenset[str] = frozenset()

    def has_column(self, name: str) -> bool:
        return name.lower() in self.columns

    def covers(self, name: str) -> bool:
        """True when a join on column *name* can use an index."""
        return name.lower() in self.indexed_columns


@dataclass(frozen=True)
class SchemaCatalog:
    """User tables/views of one database, keyed by lower-cased name:
    every one (:meth:`~repro.relational.database.Database
    .schema_catalog`) or the ones a statement names (a render-time lint
    snapshot)."""

    tables: dict[str, TableInfo]
    #: The ``PRAGMA schema_version`` this catalog was built at — the
    #: cache-invalidation key (sqlite bumps it on every DDL statement).
    schema_version: int = 0

    def table(self, name: str) -> TableInfo | None:
        return self.tables.get(name.lower())

    def __contains__(self, name: str) -> bool:
        return name.lower() in self.tables


def stored_tables(conn) -> dict[str, tuple[str, str]]:
    """Every user table and view of *conn* (a raw sqlite3 connection):
    lower-cased name → ``(name, type)``."""
    rows = conn.execute(
        "SELECT name, type FROM sqlite_master "
        "WHERE type IN ('table', 'view') AND name NOT LIKE 'sqlite_%'"
    ).fetchall()
    return {name.lower(): (name, kind) for name, kind in rows}


#: One table's columns (with primary-key rank) and the members of each
#: of its indexes (with their position), in one statement.
_DESCRIBE = (
    "SELECT 0, name, pk FROM pragma_table_info(?1) UNION ALL "
    "SELECT 1, member.name, member.seqno FROM pragma_index_list(?1) AS idx, "
    "pragma_index_info(idx.name) AS member"
)


def describe_table(conn, name: str, kind: str) -> TableInfo:
    """Introspect table or view *name* (of sqlite_master *kind*)."""
    columns: set[str] = set()
    indexed: set[str] = set()
    for is_index, column, position in conn.execute(_DESCRIBE, (name,)):
        if not column:
            continue  # an index member that is an expression
        column = column.lower()
        if is_index:
            if position < INDEX_PREFIX_DEPTH:
                indexed.add(column)
        else:
            columns.add(column)
            if 0 < position <= INDEX_PREFIX_DEPTH:  # primary-key rank
                indexed.add(column)
    return TableInfo(
        name=name.lower(),
        columns=frozenset(columns),
        is_view=(kind == "view"),
        indexed_columns=frozenset(indexed),
    )
