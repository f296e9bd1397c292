"""Relational schema descriptors with DDL generation.

Storage schemes describe their relations with these objects instead of
writing raw DDL, which gives a single place for identifier quoting and
lets the benchmark harness introspect any scheme's schema (table count,
column count — inputs to the inlining experiment E9).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import StorageError

# SQLite storage classes used by this library.
INTEGER = "INTEGER"
TEXT = "TEXT"
REAL = "REAL"

_VALID_TYPES = frozenset({INTEGER, TEXT, REAL})


def quote_identifier(name: str) -> str:
    """Quote *name* for use as an SQL identifier.

    Plain identifiers pass through (keeps generated SQL readable); anything
    else is double-quoted with embedded quotes doubled.
    """
    # For ASCII text, isidentifier() is exactly [A-Za-z_][A-Za-z0-9_]*,
    # at a fraction of a regex match's cost (it runs ~50 times a render).
    if name.isascii() and name.isidentifier():
        return name
    return '"' + name.replace('"', '""') + '"'


@dataclass(frozen=True)
class Column:
    """One column: name, storage type, nullability."""

    name: str
    type: str = TEXT
    nullable: bool = True
    primary_key: bool = False
    #: ``INTEGER PRIMARY KEY AUTOINCREMENT``: ids only grow, even past
    #: deleted rows (sqlite keeps the high-water mark in
    #: ``sqlite_sequence``).
    autoincrement: bool = False

    def __post_init__(self) -> None:
        if self.type not in _VALID_TYPES:
            raise StorageError(f"unknown column type: {self.type!r}")

    def ddl(self) -> str:
        parts = [quote_identifier(self.name), self.type]
        if self.primary_key:
            parts.append("PRIMARY KEY")
            if self.autoincrement:
                parts.append("AUTOINCREMENT")
        elif not self.nullable:
            parts.append("NOT NULL")
        return " ".join(parts)


@dataclass(frozen=True)
class ForeignKey:
    """A (possibly composite) foreign-key constraint."""

    columns: tuple[str, ...]
    references_table: str
    references_columns: tuple[str, ...]

    def ddl(self) -> str:
        cols = ", ".join(quote_identifier(c) for c in self.columns)
        ref_cols = ", ".join(
            quote_identifier(c) for c in self.references_columns
        )
        return (
            f"FOREIGN KEY ({cols}) REFERENCES "
            f"{quote_identifier(self.references_table)} ({ref_cols})"
        )


@dataclass(frozen=True)
class Index:
    """A secondary index on one table.

    ``where`` names a column whose NULL rows the index leaves out
    (``CREATE INDEX … WHERE <where> IS NOT NULL``).  sqlite uses such a
    partial index for any query that compares that column with ``=``,
    ``<>``, ``<``, ``>``, ``<=``, ``>=`` or ``IN``, since each implies
    ``IS NOT NULL``; the rows it drops are the ones no such probe can
    return.
    """

    name: str
    table: str
    columns: tuple[str, ...]
    unique: bool = False
    where: str | None = None

    def __post_init__(self) -> None:
        if self.where is not None and self.where not in self.columns:
            raise StorageError(
                f"index {self.name}: partial column {self.where!r} "
                "is not one of its columns"
            )

    def ddl(self) -> str:
        unique = "UNIQUE " if self.unique else ""
        cols = ", ".join(quote_identifier(c) for c in self.columns)
        partial = (
            f" WHERE {quote_identifier(self.where)} IS NOT NULL"
            if self.where else ""
        )
        return (
            f"CREATE {unique}INDEX IF NOT EXISTS {quote_identifier(self.name)} "
            f"ON {quote_identifier(self.table)} ({cols}){partial}"
        )


@dataclass
class Table:
    """One relation: columns, optional composite PK, FKs and indexes."""

    name: str
    columns: list[Column]
    primary_key: tuple[str, ...] = ()
    foreign_keys: list[ForeignKey] = field(default_factory=list)
    indexes: list[Index] = field(default_factory=list)
    without_rowid: bool = False

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise StorageError(f"duplicate column names in table {self.name}")
        for pk_col in self.primary_key:
            if pk_col not in names:
                raise StorageError(
                    f"primary key column {pk_col!r} not in table {self.name}"
                )

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> Column:
        for col in self.columns:
            if col.name == name:
                return col
        raise StorageError(f"no column {name!r} in table {self.name}")

    def ddl(self) -> str:
        """The CREATE TABLE statement (without indexes)."""
        parts = [col.ddl() for col in self.columns]
        if self.primary_key:
            pk = ", ".join(quote_identifier(c) for c in self.primary_key)
            parts.append(f"PRIMARY KEY ({pk})")
        parts.extend(fk.ddl() for fk in self.foreign_keys)
        body = ",\n  ".join(parts)
        suffix = " WITHOUT ROWID" if self.without_rowid else ""
        return (
            f"CREATE TABLE IF NOT EXISTS {quote_identifier(self.name)} (\n"
            f"  {body}\n){suffix}"
        )

    def ddl_statements(self) -> list[str]:
        """CREATE TABLE plus all CREATE INDEX statements."""
        return [self.ddl()] + [ix.ddl() for ix in self.indexes]

    def insert_sql(self) -> str:
        """A parameterized INSERT covering every column."""
        cols = ", ".join(quote_identifier(c) for c in self.column_names)
        marks = ", ".join("?" for _ in self.columns)
        return (
            f"INSERT INTO {quote_identifier(self.name)} ({cols}) "
            f"VALUES ({marks})"
        )

    def drop_sql(self) -> str:
        return f"DROP TABLE IF EXISTS {quote_identifier(self.name)}"
