"""Shard-map catalog persistence for the serving layer.

The sharded store (:mod:`repro.serve.sharded`) partitions documents
across N shard databases and records placement in a small catalog
database.  This module owns that catalog's SQL — the relational layer
is the only place allowed to speak raw SQL (lint rule L001), so the
serve layer calls in here instead of embedding statements.

Three pieces:

* :class:`ShardMap` — the ``xmlrel_shard_map`` table (global doc id →
  shard, per-shard local doc id, document name), mirrored in memory
  under a lock so query routing never touches SQLite.
* :func:`open_catalog` — pins the ``xmlrel_shard_config`` key/value
  table (:func:`pin_shard_config`: scheme/shards/placement persisted on
  first open and verified on reopen, turning a mismatched reopen into a
  loud error instead of silent misrouting), then opens the map and the
  journal on the catalog database.
* :class:`RebalanceJournal` — the ``xmlrel_rebalance_journal`` table:
  one row per in-flight document move, stepping through the
  ``copying → copied → flipped`` state machine so a crash at any point
  leaves enough state to roll the move back or forward on recovery
  (see :meth:`repro.serve.sharded.ShardedStore.recover`).

The catalog database is one shared connection, so :func:`open_catalog`
hands the map and the journal one ``catalog_lock``
and every method here that runs catalog SQL takes it itself; callers
(the sharded store) hold no catalog lock of their own.  The in-memory
mirrors sit behind their own short ``_lock``: reads (``resolve``,
``docs_for_shard``, ``shard_counts``) take only that one
and never wait on catalog SQL.  Both are class ``map`` in
:data:`repro.analysis.concurrency.LOCK_ORDER`; a mirror lock is only
ever taken inside the catalog lock, never around it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

from repro.errors import DocumentNotFoundError, StorageError
from repro.relational.database import Database
from repro.relational.schema import Column, INTEGER, TEXT, Table

SHARD_MAP_TABLE = Table(
    name="xmlrel_shard_map",
    columns=[
        Column("doc_id", INTEGER, primary_key=True),
        Column("shard", INTEGER, nullable=False),
        Column("local_doc_id", INTEGER, nullable=False),
        Column("name", TEXT, nullable=False),
    ],
)

SHARD_CONFIG_TABLE = Table(
    name="xmlrel_shard_config",
    columns=[
        Column("key", TEXT, primary_key=True),
        Column("value", TEXT, nullable=False),
    ],
)

REBALANCE_JOURNAL_TABLE = Table(
    name="xmlrel_rebalance_journal",
    columns=[
        Column("journal_id", INTEGER, primary_key=True),
        Column("doc_id", INTEGER, nullable=False),
        Column("from_shard", INTEGER, nullable=False),
        Column("from_local", INTEGER, nullable=False),
        Column("to_shard", INTEGER, nullable=False),
        Column("to_local", INTEGER),
        Column("state", TEXT, nullable=False),
        Column("name", TEXT, nullable=False),
    ],
)

#: Rebalance state machine, in order.  ``copying``: journal row exists,
#: the destination copy may or may not have committed — recovery rolls
#: *back* (the orphan sweep removes any committed copy the map never
#: learned about).  ``copied``: the destination copy committed and its
#: local id is journaled — recovery rolls *forward* (flip the map, drop
#: the source copy).  ``flipped``: the map points at the destination —
#: recovery only needs to drop the source copy.
REBALANCE_STATES = ("copying", "copied", "flipped")


def pin_shard_config(
    catalog_db: Database, scheme: str, shards: int, placement: str
) -> None:
    """Persist scheme/shards/placement on first open; verify after."""
    catalog_db.create_table(SHARD_CONFIG_TABLE)
    wanted = {
        "scheme": scheme,
        "shards": str(shards),
        "placement": placement,
    }
    stored = dict(
        catalog_db.query("SELECT key, value FROM xmlrel_shard_config")
    )
    if not stored:
        catalog_db.executemany(
            "INSERT INTO xmlrel_shard_config (key, value) VALUES (?, ?)",
            sorted(wanted.items()),
        )
        return
    mismatches = {
        key: (stored.get(key), value)
        for key, value in wanted.items()
        if stored.get(key) != value
    }
    if mismatches:
        detail = ", ".join(
            f"{key}: stored {have!r} != requested {want!r}"
            for key, (have, want) in sorted(mismatches.items())
        )
        raise StorageError(
            f"sharded store config mismatch ({detail}); open with the "
            f"original parameters or use a fresh directory"
        )


def open_catalog(
    catalog_db: Database, scheme: str, shards: int, placement: str
) -> tuple[ShardMap, RebalanceJournal]:
    """Pin the store's config, then open the two views of its catalog
    database — sharing one ``catalog_lock``, as they share one
    connection."""
    pin_shard_config(catalog_db, scheme, shards, placement)
    catalog_lock = threading.Lock()
    return (
        ShardMap(catalog_db, catalog_lock),
        RebalanceJournal(catalog_db, catalog_lock),
    )


@dataclass(frozen=True)
class ShardedDocument:
    """Shard-map row: where one document lives."""

    doc_id: int
    shard: int
    local_doc_id: int
    name: str


class ShardMap:
    """The global-doc-id → (shard, local id) catalog.

    Persisted in the catalog database, mirrored in memory under a lock
    so the executor's routing reads never race the writer (or each
    other) on a SQLite connection.
    """

    def __init__(self, db: Database, catalog_lock: threading.Lock) -> None:
        self.db = db
        self.catalog_lock = catalog_lock
        db.create_table(SHARD_MAP_TABLE)
        self._lock = threading.Lock()
        self._docs: dict[int, ShardedDocument] = {}
        for row in db.query(
            "SELECT doc_id, shard, local_doc_id, name "
            "FROM xmlrel_shard_map ORDER BY doc_id"
        ):
            self._docs[row[0]] = ShardedDocument(*row)
        #: Round-robin placement's next pick, under ``catalog_lock``.
        self._round_robin = len(self._docs)

    def __len__(self) -> int:
        with self._lock:
            return len(self._docs)

    def round_robin(self, shards: int, claim: bool) -> int:
        """The shard round-robin placement gives the next document;
        *claim* takes it, so the one after lands on the next shard."""
        with self.catalog_lock:
            shard = self._round_robin % shards
            self._round_robin += claim
        return shard

    def register(self, shard: int, local_doc_id: int, name: str) -> int:
        """Persist one placement; returns the new global doc id."""
        with self.catalog_lock:
            cursor = self.db.execute(
                "INSERT INTO xmlrel_shard_map (shard, local_doc_id, name) "
                "VALUES (?, ?, ?)",
                (shard, local_doc_id, name),
            )
            doc_id = int(cursor.lastrowid)
            with self._lock:
                self._docs[doc_id] = ShardedDocument(
                    doc_id, shard, local_doc_id, name
                )
        return doc_id

    def resolve(self, doc_id: int) -> ShardedDocument:
        with self._lock:
            record = self._docs.get(doc_id)
        if record is None:
            raise DocumentNotFoundError(doc_id)
        return record

    def remove(self, doc_id: int) -> None:
        self.resolve(doc_id)
        with self.catalog_lock:
            self.db.execute(
                "DELETE FROM xmlrel_shard_map WHERE doc_id = ?", (doc_id,)
            )
            with self._lock:
                self._docs.pop(doc_id, None)

    def flip(self, entry: RebalanceEntry) -> None:
        """The commit point of a journaled move: repoint the document at
        its destination copy and mark the journal row ``flipped``, in
        one catalog transaction."""
        record = self.resolve(entry.doc_id)
        with self.catalog_lock:
            with self.db.transaction():
                self.db.execute(
                    "UPDATE xmlrel_shard_map SET shard = ?, "
                    "local_doc_id = ? WHERE doc_id = ?",
                    (entry.to_shard, entry.to_local, entry.doc_id),
                )
                self.db.execute(
                    "UPDATE xmlrel_rebalance_journal "
                    "SET state = 'flipped' WHERE journal_id = ?",
                    (entry.journal_id,),
                )
            with self._lock:
                self._docs[entry.doc_id] = replace(
                    record, shard=entry.to_shard, local_doc_id=entry.to_local
                )

    def docs_for_shard(self, shard: int) -> list[tuple[int, int]]:
        """``(global, local)`` id pairs of every document on *shard*."""
        with self._lock:
            return [
                (record.doc_id, record.local_doc_id)
                for record in self._docs.values()
                if record.shard == shard
            ]

    def records(self) -> list[ShardedDocument]:
        with self._lock:
            return sorted(self._docs.values(), key=lambda r: r.doc_id)

    def shard_counts(self, shards: int) -> dict[int, int]:
        """Documents per shard (zero-filled — empty shards count)."""
        counts = {shard: 0 for shard in range(shards)}
        with self._lock:
            for record in self._docs.values():
                counts[record.shard] += 1
        return counts


@dataclass(frozen=True)
class RebalanceEntry:
    """One in-flight document move, as journaled in the catalog."""

    journal_id: int
    doc_id: int
    from_shard: int
    from_local: int
    to_shard: int
    to_local: int | None
    state: str
    name: str


class RebalanceJournal:
    """Write-ahead journal for document moves between shards.

    A move writes its intent here *before* touching any shard, then
    advances the row through ``copying → copied → flipped`` as each
    step commits (the flip is :meth:`ShardMap.flip`).  Recovery
    (:meth:`ShardedStore.recover`) reads the surviving rows and rolls
    each move back or forward — see :data:`REBALANCE_STATES` for which
    state implies which.
    """

    def __init__(self, db: Database, catalog_lock: threading.Lock) -> None:
        self.db = db
        self.catalog_lock = catalog_lock
        db.create_table(REBALANCE_JOURNAL_TABLE)

    def begin(
        self, record: ShardedDocument, to_shard: int
    ) -> RebalanceEntry:
        """Journal intent to move *record*'s document to *to_shard*."""
        with self.catalog_lock:
            cursor = self.db.execute(
                "INSERT INTO xmlrel_rebalance_journal "
                "(doc_id, from_shard, from_local, to_shard, to_local, "
                "state, name) VALUES (?, ?, ?, ?, NULL, 'copying', ?)",
                (record.doc_id, record.shard, record.local_doc_id,
                 to_shard, record.name),
            )
            journal_id = int(cursor.lastrowid)
        return RebalanceEntry(
            journal_id, record.doc_id, record.shard,
            record.local_doc_id, to_shard, None, "copying", record.name,
        )

    def mark_copied(
        self, entry: RebalanceEntry, to_local: int
    ) -> RebalanceEntry:
        """The destination copy committed under *to_local*."""
        with self.catalog_lock:
            self.db.execute(
                "UPDATE xmlrel_rebalance_journal "
                "SET state = 'copied', to_local = ? WHERE journal_id = ?",
                (to_local, entry.journal_id),
            )
        return replace(entry, to_local=to_local, state="copied")

    def finish(self, journal_id: int) -> None:
        """The move fully completed; drop its journal row."""
        with self.catalog_lock:
            self.db.execute(
                "DELETE FROM xmlrel_rebalance_journal WHERE journal_id = ?",
                (journal_id,),
            )

    def pending(self) -> list[RebalanceEntry]:
        """Surviving journal rows, oldest first — crash leftovers."""
        with self.catalog_lock:
            rows = self.db.query(
                "SELECT journal_id, doc_id, from_shard, from_local, "
                "to_shard, to_local, state, name "
                "FROM xmlrel_rebalance_journal ORDER BY journal_id"
            )
        return [RebalanceEntry(*row) for row in rows]

