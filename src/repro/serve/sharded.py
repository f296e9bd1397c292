"""Document sharding across per-shard SQLite files.

A :class:`ShardedStore` partitions documents across N shard databases
(``shard-00.db`` … ``shard-NN.db`` inside one directory) behind the
familiar :class:`~repro.core.store.XmlRelStore` surface:

.. code-block:: python

    from repro.serve import ShardedStore

    with ShardedStore.open("catalog.d", scheme="interval", shards=4) as s:
        doc_id = s.store_text("<bib>...</bib>", name="bib-1")
        s.query_pres(doc_id, "/bib/book/title")     # pruned to 1 shard
        s.query_all("//book[@year = '2000']")        # scatter-gather

Each shard is a complete single-store database (same scheme, own
catalog, own WAL), written through one writer connection per shard and
read through a per-shard :class:`~repro.serve.pool.ConnectionPool` of
read-only connections — WAL journaling is what lets the readers proceed
while a writer commits.

**Shard map.**  Document placement lives in a small catalog database
(``catalog.db``) holding the ``xmlrel_shard_map`` table: global doc id
→ ``(shard, local_doc_id, name)``.  Global ids are issued by this
table's rowid, so they are dense and store-ordered; the per-shard local
ids never leak to callers.  The map is mirrored in memory (guarded by a
lock) so query routing never touches SQLite.  A config table pins
``scheme``/``shards``/``placement``, making a reopen with different
parameters a loud error instead of silent misrouting.

**Placement.**  ``hash`` (default) places by CRC32 of the document
name — deterministic across processes (Python's ``hash`` is
per-process salted, which would scatter a reopened store differently);
``round_robin`` cycles shards in store order for maximally even counts.

**Writes.**  Each shard has a single-writer lock, so writes to
*different* shards proceed concurrently while writes to one shard
serialize; reads never take a shard lock (WAL keeps them consistent).
A corpus load (:meth:`store_corpus`) holds every shard lock for its
duration.
Subtree updates (:meth:`insert_subtree` / :meth:`delete_subtree`) run
:mod:`repro.updates` inside a writer transaction: each update is one
atomic unit — checks, rows, cached content, catalog count — so one
fault anywhere rolls the whole update back.  After a write the shard's read
pool drops the written document's cached results (its *data version*
moves) and bumps its *shard-local* plan epoch (only for schemes whose
translations depend on stored data), so cached plans of other shards,
and cached results of every other document, are untouched.

**Crash-safe ordering.**  A ``store`` commits shard rows *before*
registering the shard-map entry; a ``delete`` removes the map entry
*before* deleting shard rows.  Either crash point therefore leaves an
*orphan* (committed shard rows no map entry points at) — never a
dangling map entry — and :meth:`recover` sweeps orphans on the next
open.

**Rebalancing.**  :meth:`rebalance` moves one document to another shard
while reads continue, journaled through the catalog
(:class:`~repro.relational.shardmap.RebalanceJournal`) as ``copying →
copied → flipped``; a crash at any statement leaves a state
:meth:`recover` rolls back (copy never flipped into the map) or forward
(flip + drop the source copy).  Readers always see exactly one
committed copy through the map.

**Lock order.**  The canonical order for every lock in the tree is
declared once, in :data:`repro.analysis.concurrency.LOCK_ORDER`:
``shard`` (outermost) → ``map`` → ``pool`` → ``metrics`` (innermost).
This module owns only the ``shard`` class — the per-shard writer
locks, several taken in ascending shard index only.  The catalog's
``map`` locks belong to :mod:`repro.relational.shardmap`, whose methods
take them themselves, so nothing here holds one.  The static analyzer
(``python -m repro.analysis.concurrency``) and the runtime harness
(:mod:`repro.analysis.lockharness`) both enforce the order; change the
registry, not just this prose.
"""

from __future__ import annotations

import gc
import os
import threading
import time
import zlib
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass

from repro import updates as updates_module
from repro.core.registry import check_scheme_kwargs
from repro.core.store import XmlRelStore, build_query_report, open_scheme
from repro.errors import DocumentNotFoundError, Overloaded, StorageError
from repro.obs.events import RequestLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import QueryReport
from repro.obs.trace import NULL_TRACER, Tracer
from repro.reliability.audit import IntegrityReport
from repro.relational.database import Database, fs_path
from repro.relational.shardmap import (
    RebalanceEntry,
    RebalanceJournal,
    ShardedDocument,
    ShardMap,
    open_catalog,
)
from repro.serve.executor import QueryExecutor, ScatterResult
from repro.serve.pool import ConnectionPool
from repro.storage.base import BulkSession
from repro.updates import UpdateStats
from repro.xml.dom import Document, Element, Node
from repro.xml.events import payload_events
from repro.xml.parser import ParseOptions

#: Document-placement strategies.
PLACEMENTS = ("hash", "round_robin")


@dataclass(frozen=True)
class RecoveryReport:
    """What :meth:`ShardedStore.recover` found and repaired."""

    #: doc ids of moves rolled back (journal state ``copying``).
    rolled_back: tuple = ()
    #: doc ids of moves rolled forward (journal state ``copied``).
    rolled_forward: tuple = ()
    #: doc ids whose source copy was dropped (journal state ``flipped``).
    cleaned_up: tuple = ()
    #: ``(shard, local_doc_id)`` of swept orphans (committed shard rows
    #: no map entry referenced).
    orphans_removed: tuple = ()

    @property
    def acted(self) -> bool:
        return bool(
            self.rolled_back
            or self.rolled_forward
            or self.cleaned_up
            or self.orphans_removed
        )


class ShardedStore:
    """N single-scheme stores behind one facade, served concurrently."""

    def __init__(
        self,
        directory: str,
        catalog_db: Database,
        shard_map: ShardMap,
        journal: RebalanceJournal,
        writers: list[XmlRelStore],
        pools: dict[int, ConnectionPool],
        executor: QueryExecutor,
        placement: str,
        metrics: MetricsRegistry,
        tracer: Tracer,
    ) -> None:
        self.directory = directory
        self.catalog_db = catalog_db
        self.shard_map = shard_map
        self.journal = journal
        self.writers = writers
        self.pools = pools
        self.executor = executor
        self.placement = placement
        self.metrics = metrics
        self.tracer = tracer
        self.scheme_name = writers[0].scheme.name
        #: One single-writer lock per shard: writes to different shards
        #: proceed concurrently, writes to one shard serialize.
        self._shard_locks = [threading.Lock() for _ in writers]
        #: The HTTP/JSON query gateway, once :meth:`serve_gateway`
        #: starts it.
        self._gateway = None
        #: True when :meth:`serve_gateway` auto-created the request log (we
        #: close it); caller-provided logs stay the caller's to close.
        self._owned_request_log = False

    # -- opening ------------------------------------------------------------------

    @classmethod
    def open(
        cls,
        directory: str,
        scheme: str = "interval",
        shards: int = 4,
        placement: str = "hash",
        profile: str = "durable",
        pool_size: int = 4,
        acquire_timeout: float = 1.0,
        max_in_flight: int = 32,
        default_deadline: float | None = None,
        on_shard_error: str = "fail",
        tracer: Tracer | None = None,
        retry=None,
        lint: str = "default",
        fault_policy=None,
        request_log: RequestLog | None = None,
        **scheme_kwargs,
    ) -> "ShardedStore":
        """Open (creating if needed) a sharded store under *directory*.

        *shards*/*placement*/*scheme* are pinned in the store's config
        on first open; reopening with different values raises.
        *fault_policy* (a
        :class:`~repro.reliability.faults.ShardFaultPolicy`) wires both
        the writer connections and the read pools through
        fault-injecting connections, so crash sweeps reach the update
        and rebalance paths.  *request_log* attaches a wide-event sink:
        one structured record per query/update (see
        :class:`~repro.obs.events.RequestLog`).  *retry* backs off
        transient busy errors on writers **and** fresh-connection health
        failures in the read pools.  Remaining arguments parallel
        :meth:`XmlRelStore.open`; ``scheme_kwargs`` pass to the scheme
        and are checked against its constructor before anything is
        written.

        Crash recovery (:meth:`recover`) runs before the store is
        returned: interrupted rebalances are rolled back or forward,
        orphans swept.
        """
        directory = fs_path(directory)
        if shards < 1:
            raise StorageError("shard count must be >= 1")
        if placement not in PLACEMENTS:
            raise StorageError(
                f"unknown placement {placement!r}; available: "
                + ", ".join(PLACEMENTS)
            )
        check_scheme_kwargs(scheme, scheme_kwargs)
        os.makedirs(directory, exist_ok=True)
        metrics = tracer.metrics if tracer is not None else MetricsRegistry()
        the_tracer = tracer if tracer is not None else NULL_TRACER

        def factory(fault_key: int):
            if fault_policy is None:
                return Database
            return fault_policy.factory(fault_key)

        # Everything opened so far closes again if a later step raises.
        with ExitStack() as opened:
            catalog_db = Database(
                os.path.join(directory, "catalog.db"),
                profile=profile,
                check_same_thread=False,
            )
            opened.callback(catalog_db.close)
            shard_map, journal = open_catalog(
                catalog_db, scheme, shards, placement
            )
            writers = []
            pools: dict[int, ConnectionPool] = {}
            for shard in range(shards):
                path = os.path.join(directory, f"shard-{shard:02d}.db")
                writer = open_scheme(
                    path, scheme, factory(shard), scheme_kwargs,
                    profile=profile, retry=retry, tracer=the_tracer,
                    lint=lint, check_same_thread=False,
                )
                opened.callback(writer.db.close)
                writers.append(XmlRelStore(writer.db, writer))
                pool = pools[shard] = ConnectionPool(
                    path, scheme, size=pool_size,
                    acquire_timeout=acquire_timeout, name=f"shard{shard}",
                    metrics=metrics, retry=retry, factory=factory(shard),
                    scheme_kwargs=scheme_kwargs, profile=profile,
                    lint=lint, tracer=the_tracer,
                )
                opened.callback(pool.close)
            executor = QueryExecutor(
                pools,
                metrics,
                the_tracer,
                max_in_flight=max_in_flight,
                default_deadline=default_deadline,
                on_shard_error=on_shard_error,
                request_log=request_log,
            )
            opened.callback(executor.close)
            store = cls(
                directory, catalog_db, shard_map, journal, writers, pools,
                executor, placement, metrics, the_tracer,
            )
            store.recover()
            opened.pop_all()
        return store

    # -- placement ----------------------------------------------------------------

    def place(self, name: str) -> int:
        """The shard that owns (or would own) a document named *name*."""
        return self._place(name, claim=False)

    def _place(self, name: str, claim: bool) -> int:
        """:meth:`place`; *claim* when the document is being stored,
        so round-robin placement moves on to the next shard."""
        if self.placement == "hash":
            return zlib.crc32(name.encode("utf-8")) % len(self.writers)
        return self.shard_map.round_robin(len(self.writers), claim)

    # -- write plumbing -----------------------------------------------------------

    @property
    def request_log(self) -> RequestLog | None:
        """The wide-event sink shared with the executor (None when the
        store runs without one)."""
        return self.executor.request_log

    @contextmanager
    def _observed_update(self, op: str, **fields):
        """Outcome accounting + one wide event around a write operation.

        The write-side twin of ``ScatterStream._finish_query``: every
        exit (commit or raise) lands in ``serve.update_seconds`` with an
        outcome dimension, and — when a request log is attached — emits
        one ``update`` event with the operation, target, and error.
        """
        started = time.perf_counter()
        outcome = "error"
        error_text: str | None = None
        try:
            yield
            outcome = "ok"
        except BaseException as error:
            error_text = f"{type(error).__name__}: {error}"
            raise
        finally:
            elapsed = time.perf_counter() - started
            self.metrics.histogram("serve.update_seconds").observe(elapsed)
            self.metrics.histogram(
                f"serve.update_seconds.{outcome}"
            ).observe(elapsed)
            self.metrics.counter(f"serve.update.outcome.{outcome}").inc()
            log = self.request_log
            if log is not None:
                event = {
                    "event": "update",
                    "op": op,
                    "request_id": self.tracer.capture().request_id,
                    "ts": time.time(),
                    "outcome": outcome,
                    "elapsed_seconds": elapsed,
                    **fields,
                }
                if error_text is not None:
                    event["error"] = error_text
                log.emit(event)

    def _post_write(self, shard: int, doc_id: int | None = None) -> None:
        """Bookkeeping after one committed write to *shard* (shard lock
        held), before the write returns to its caller: drop the shard
        pool's cached results of global document *doc_id* — of every
        document when None (a corpus load, a rebalance, a recovery) —
        for every scheme, and — only for schemes whose translations
        depend on stored data (universal's label columns, binary's
        partition tables, edge's and binary's label paths) — bump the
        shard-local plan epoch so this shard's pooled readers stop
        using stale cached plans.  A ``//`` expansion a reader cached
        before the bump reached it still checks the catalog version on
        its hit.  Other shards' caches are never touched.
        """
        self.pools[shard].bump_data_version(doc_id)
        if self.writers[shard].scheme.translation_depends_on_data:
            self.pools[shard].bump_epoch()

    @contextmanager
    def _writing(self, op: str, doc_id: int, **fields):
        """The envelope of a single-document write: its wide event
        around the owning shard's writer lock, and :meth:`_post_write`
        once the body committed.  Yields the document's record.

        Re-resolves under the lock: a concurrent rebalance may have
        moved the document between resolution and acquisition, in which
        case the loop chases it to its new shard.
        """
        with self._observed_update(op, doc_id=doc_id, **fields):
            while True:
                record = self.shard_map.resolve(doc_id)
                with self._shard_locks[record.shard]:
                    current = self.shard_map.resolve(doc_id)
                    if current.shard == record.shard:
                        yield current
                        self._post_write(current.shard, doc_id)
                        return
                # Moved mid-acquire; chase it.

    @contextmanager
    def _all_shards(self):
        """Every shard writer lock, taken in ascending shard order: a
        corpus load and a recovery have the whole store to themselves."""
        for lock in self._shard_locks:
            lock.acquire()
        try:
            yield
        finally:
            for lock in reversed(self._shard_locks):
                lock.release()

    # -- storing ------------------------------------------------------------------

    def store(self, document: Document, name: str = "document") -> int:
        """Shred *document* onto its shard; returns the global doc id.

        Shard rows commit before the map entry registers — a crash
        between the two leaves an orphan for :meth:`recover` to sweep,
        never a map entry pointing at nothing.
        """
        return self._store_payload(document, name)

    def store_text(self, text: str, name: str = "document") -> int:
        """Parse and shred XML *text* onto its shard (no DOM is built);
        same contract as :meth:`store`."""
        return self._store_payload(text, name)

    def _store_payload(self, source, name: str) -> int:
        with self._observed_update("store", name=name):
            shard = self._place(name, claim=True)
            with self._shard_locks[shard]:
                local = self.writers[shard].store_stream(source, name)
                doc_id = self.shard_map.register(shard, local, name)
                self._post_write(shard, doc_id)
            self.metrics.counter("serve.documents_stored").inc()
            return doc_id

    def store_many(
        self,
        documents: list[Document],
        names: list[str] | None = None,
    ) -> list[int]:
        """Store already-parsed documents: :meth:`store_corpus` over
        :class:`Document` payloads (one lane, one atomicity contract)."""
        return self.store_corpus(documents, names)

    def store_corpus(
        self,
        sources,
        names: list[str] | None = None,
        keep_whitespace: bool = True,
    ) -> list[int]:
        """Stream a corpus into the shards, one bulk session per shard.

        *sources* is any iterable of payloads — XML text, open file
        objects, filesystem paths, or already-parsed
        :class:`~repro.xml.dom.Document` objects; it is pulled one
        payload at a time, each stored before the next is asked for, so
        a generator over a multi-gigabyte corpus never has more than
        one payload in flight.

        Row production (pull parse, shredding, ``executemany``) holds
        the interpreter lock, so it runs on the calling thread for every
        shard: loader threads would only trade the GIL row by row.  Each
        shard's bulk session (one transaction, deferred indexes, one
        ANALYZE) opens on the shard's first document; what does
        parallelize — the session closes, a few long GIL-free C calls —
        fans out to one short-lived thread per opened session.  Every
        shard writer lock is held for the whole load.

        Atomicity: a failure while producing rows rolls back every open
        session; shard-map entries register only after **every** shard
        committed, so any failure (including an injected crash during a
        close) leaves zero registered documents and only orphans that
        :meth:`recover` sweeps — never a map entry pointing at missing
        rows.

        Returns global doc ids in input order.
        """
        with self._observed_update("load"):
            # Bulk-load GC stance: the streaming shredder allocates
            # millions of short-lived, cycle-free tuples per document,
            # and every generational sweep stalls the row producer.
            # Collect once up front, switch the cycle detector off for
            # the load, and restore it afterwards.
            gc_was_enabled = gc.isenabled()
            if gc_was_enabled:
                gc.collect()
                gc.disable()
            try:
                with self._all_shards():
                    doc_ids = self._load_corpus_locked(
                        sources, names, keep_whitespace
                    )
            finally:
                if gc_was_enabled:
                    gc.enable()
            self.metrics.counter("serve.documents_stored").inc(len(doc_ids))
            return doc_ids

    def _load_corpus_locked(
        self, sources, names: list[str] | None, keep_whitespace: bool
    ) -> list[int]:
        """:meth:`store_corpus` with every shard lock held — including
        across the join of the close threads: the locks are the
        single-writer serialization for the whole bulk session."""
        options = ParseOptions(keep_whitespace=keep_whitespace)
        sessions: dict[int, BulkSession] = {}
        placed: list[tuple[int, int, str]] = []  # (shard, local id, name)
        docs_counter = self.metrics.counter("ingest.documents")
        rows_counter = self.metrics.counter("ingest.rows")
        with ExitStack() as rollback:
            for position, source in enumerate(sources):
                if names is None:
                    name = f"document-{position}"
                elif position < len(names):
                    name = names[position]
                else:
                    raise StorageError(
                        f"payload at position {position} has no name: "
                        f"only {len(names)} name(s) given"
                    )
                shard = self._place(name, claim=True)
                session = sessions.get(shard)
                if session is None:
                    session = sessions[shard] = rollback.enter_context(
                        self.writers[shard].bulk_session()
                    )
                started = time.perf_counter()
                result = session.store_stream(
                    payload_events(source, options), name
                )
                self.metrics.histogram(
                    f"ingest.shard{shard}.load_seconds"
                ).observe(time.perf_counter() - started)
                placed.append((shard, result.doc_id, name))
                docs_counter.inc()
                rows_counter.inc(sum(result.row_counts.values()))
            if names is not None and len(placed) != len(names):
                raise StorageError(
                    f"{len(placed)} document(s) but {len(names)} name(s)"
                )
            # Every payload is stored: from here the sessions close
            # (below) instead of rolling back.
            rollback.pop_all()

        errors: dict[int, BaseException] = {}
        captured = self.tracer.capture()

        def close(shard: int, session: BulkSession) -> None:
            try:
                with self.tracer.adopt(captured), self.tracer.span(
                    "ingest_shard",
                    shard=shard,
                    documents=len(session.results),
                ):
                    session.__exit__(None, None, None)
            except BaseException as error:  # noqa: BLE001 — reported to caller
                errors[shard] = error

        threads = [
            threading.Thread(
                target=close,
                args=(shard, session),
                name=f"ingest-close-{shard}",
                daemon=True,
            )
            for shard, session in sessions.items()
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for shard in sessions:
            if shard not in errors:
                self._post_write(shard)
        if errors:
            raise errors[min(errors)]
        return [
            self.shard_map.register(shard, local, name)
            for shard, local, name in placed
        ]

    def delete(self, doc_id: int) -> None:
        """Remove a document from its shard and the shard map.

        The map entry goes first: a crash before the rows are gone
        leaves an orphan (swept by :meth:`recover`), never a map entry
        resolving to missing rows.
        """
        with self._writing("delete", doc_id) as record:
            self.shard_map.remove(doc_id)
            self.writers[record.shard].delete(record.local_doc_id)

    # -- updates ------------------------------------------------------------------

    @property
    def supports_updates(self) -> bool:
        """True when the store's scheme implements subtree updates."""
        return updates_module.supports_updates(self.writers[0].scheme)

    def insert_subtree(
        self,
        doc_id: int,
        parent_pre: int,
        fragment: Element,
        index: int = 0,
    ) -> UpdateStats:
        """Insert *fragment* under node *parent_pre* of one document.

        Serialized by the shard's single-writer lock and atomic: a
        fault at any statement — or a parent that does not exist or is
        not an element — rolls the whole update back while pooled
        readers keep serving the pre-update state.
        """
        with self._writing(
            "insert_subtree", doc_id, parent_pre=parent_pre
        ) as record:
            writer = self.writers[record.shard]
            with writer.db.transaction():
                stats = updates_module.insert_subtree(
                    writer.scheme, record.local_doc_id, parent_pre,
                    fragment, index,
                )
        self.metrics.counter("serve.subtree_inserts").inc()
        return stats

    def delete_subtree(self, doc_id: int, pre: int) -> UpdateStats:
        """Delete the subtree rooted at node *pre* of one document.

        Same serialization and atomicity contract as
        :meth:`insert_subtree`.
        """
        with self._writing("delete_subtree", doc_id, pre=pre) as record:
            writer = self.writers[record.shard]
            with writer.db.transaction():
                stats = updates_module.delete_subtree(
                    writer.scheme, record.local_doc_id, pre
                )
        self.metrics.counter("serve.subtree_deletes").inc()
        return stats

    # -- rebalancing --------------------------------------------------------------

    def rebalance(self, doc_id: int, to_shard: int) -> ShardedDocument:
        """Move one document to *to_shard* while reads continue.

        Copy-then-flip, journaled: the destination copy commits first,
        the shard map flips in one catalog transaction with the journal
        advance, then the source copy is dropped.  Readers resolve the
        map, so they see the old copy until the flip and the new copy
        after — never neither, never both.  A crash at any statement
        leaves a journal state :meth:`recover` repairs.
        """
        self._check_shard(to_shard)
        with self._observed_update(
            "rebalance", doc_id=doc_id, to_shard=to_shard
        ):
            while True:
                record = self.shard_map.resolve(doc_id)
                if record.shard == to_shard:
                    return record  # already home
                first, second = sorted((record.shard, to_shard))
                with self._shard_locks[first]:
                    with self._shard_locks[second]:
                        current = self.shard_map.resolve(doc_id)
                        if current.shard != record.shard:
                            continue  # moved underneath us; chase it
                        self._rebalance_locked(current, to_shard)
                        moved = self.shard_map.resolve(doc_id)
                self.metrics.counter("serve.rebalances").inc()
                return moved

    def _check_shard(self, shard: int) -> None:
        if not 0 <= shard < len(self.writers):
            raise StorageError(
                f"no shard {shard} (store has {len(self.writers)})"
            )

    def _rebalance_locked(
        self, record: ShardedDocument, to_shard: int
    ) -> None:
        """The move protocol, with both shard locks held."""
        entry = self.journal.begin(record, to_shard)
        # 1. Copy: publish the source writer's rows as a token stream
        #    and shred it at the destination — no tree in between.  A
        #    crash here leaves state "copying" — the map never learned
        #    of the copy, so recovery rolls back.
        to_local = self.writers[to_shard].scheme.store_stream(
            self.writers[record.shard].scheme.publish_events(
                record.local_doc_id
            ),
            record.name,
        ).doc_id
        # 2.–3. Flip and drop the source copy: the roll-forward that
        #    recovery runs on a move it finds "copied".
        self._roll_forward(self.journal.mark_copied(entry, to_local))
        self._post_write(record.shard)
        self._post_write(to_shard)

    def _roll_forward(self, entry: RebalanceEntry) -> None:
        """Finish a journaled move from its state.  ``copied``: flip —
        map move and journal advance in one catalog transaction
        (:meth:`ShardMap.flip`), the atomic commit point of the whole
        move.  Then drop the source copy and the journal row; a crash
        before that leaves ``flipped``, and recovery repeats only the
        drop."""
        if entry.state == "copied":
            self.shard_map.flip(entry)
        try:
            self.writers[entry.from_shard].delete(entry.from_local)
        except DocumentNotFoundError:
            pass  # the crash interrupted us after this very step
        self.journal.finish(entry.journal_id)

    def rebalance_shard(
        self, from_shard: int, to_shard: int, count: int | None = None
    ) -> list[int]:
        """Move up to *count* documents (default: enough to even the
        pair) from one shard to another; returns the moved doc ids."""
        self._check_shard(from_shard)
        self._check_shard(to_shard)
        if from_shard == to_shard:
            return []  # nothing would change shard
        counts = self.shard_counts()
        if count is None:
            count = max(0, (counts[from_shard] - counts[to_shard]) // 2)
        moved = []
        for global_doc, _ in sorted(
            self.shard_map.docs_for_shard(from_shard)
        )[:count]:
            self.rebalance(global_doc, to_shard)
            moved.append(global_doc)
        return moved

    # -- crash recovery -----------------------------------------------------------

    def recover(self) -> RecoveryReport:
        """Repair whatever a crash left behind.

        Journal rows roll back (``copying``) or forward (``copied`` /
        ``flipped``); orphaned shard documents (committed rows no map
        entry references — interrupted stores, deletes, or rolled-back
        moves) are swept.  Runs automatically at :meth:`open`; callable
        any time the store is quiesced.
        """
        with self._all_shards():
            return self._recover_locked()

    def _recover_locked(self) -> RecoveryReport:
        rolled_back: list[int] = []
        rolled_forward: list[int] = []
        cleaned_up: list[int] = []
        touched: set[int] = set()
        for entry in self.journal.pending():
            if entry.state == "copying":
                # The map never learned of the copy; drop the journal
                # row and let the orphan sweep collect any committed
                # destination rows.
                self.journal.finish(entry.journal_id)
                rolled_back.append(entry.doc_id)
                touched.add(entry.to_shard)
                continue
            # "copied": the destination copy committed and is journaled
            # — finish the move.  "flipped": the map already points at
            # the destination; only the source copy may remain.
            self._roll_forward(entry)
            if entry.state == "copied":
                rolled_forward.append(entry.doc_id)
                touched.add(entry.to_shard)
            else:
                cleaned_up.append(entry.doc_id)
            touched.add(entry.from_shard)
        orphans: list[tuple[int, int]] = []
        for shard, writer in enumerate(self.writers):
            mapped = {
                local
                for _, local in self.shard_map.docs_for_shard(shard)
            }
            for record in writer.documents():
                if record.doc_id not in mapped:
                    writer.delete(record.doc_id)
                    orphans.append((shard, record.doc_id))
                    touched.add(shard)
        for shard in sorted(touched):
            self._post_write(shard)
        report = RecoveryReport(
            rolled_back=tuple(rolled_back),
            rolled_forward=tuple(rolled_forward),
            cleaned_up=tuple(cleaned_up),
            orphans_removed=tuple(orphans),
        )
        if report.acted:
            self.metrics.counter("serve.recoveries").inc()
        return report

    # -- catalog ------------------------------------------------------------------

    def documents(self) -> list[ShardedDocument]:
        """Shard-map rows of every stored document."""
        return self.shard_map.records()

    def resolve(self, doc_id: int) -> ShardedDocument:
        """Where *doc_id* lives (raises
        :class:`~repro.errors.DocumentNotFoundError` if unknown)."""
        return self.shard_map.resolve(doc_id)

    def shard_counts(self) -> dict[int, int]:
        """Documents per shard, zero-filled."""
        return self.shard_map.shard_counts(len(self.writers))

    @property
    def shard_count(self) -> int:
        return len(self.writers)

    # -- integrity ----------------------------------------------------------------

    def verify(self, doc_id: int) -> IntegrityReport:
        """Run the per-scheme integrity audit on one document, over a
        pooled read connection of its shard.  The report carries the
        *global* doc id and the shard it ran on."""
        record = self.shard_map.resolve(doc_id)
        report = self.executor.run_on_shard(
            record.shard,
            lambda session: session.scheme.verify_document(
                record.local_doc_id
            ),
        )
        report.doc_id = doc_id
        report.shard = record.shard
        return report

    def verify_all(self) -> dict[int, list[IntegrityReport]]:
        """Audit every document of every shard, plus one placement
        report per shard (orphans, dangling map entries, leftover
        journal rows).  Returns reports grouped by shard."""
        results: dict[int, list[IntegrityReport]] = {}
        for shard in range(len(self.writers)):
            reports = [
                self.verify(global_doc)
                for global_doc, _ in sorted(
                    self.shard_map.docs_for_shard(shard)
                )
            ]
            reports.append(self._verify_placement(shard))
            results[shard] = reports
        return results

    def verify_ok(self) -> bool:
        """True when every report of :meth:`verify_all` is clean."""
        return all(
            report.ok
            for reports in self.verify_all().values()
            for report in reports
        )

    def _verify_placement(self, shard: int) -> IntegrityReport:
        """Cross-check one shard's local catalog against the shard map
        and the rebalance journal."""
        report = IntegrityReport(
            doc_id=-1, scheme=self.scheme_name, shard=shard
        )
        mapped = {
            local for _, local in self.shard_map.docs_for_shard(shard)
        }
        stored = {
            record.doc_id for record in self.writers[shard].documents()
        }
        report.ran("placement.no-orphans")
        for local in sorted(stored - mapped):
            report.add(
                "placement.no-orphans",
                f"shard {shard} stores local doc {local} that no shard-map "
                f"entry references",
            )
        report.ran("placement.no-dangling")
        for local in sorted(mapped - stored):
            report.add(
                "placement.no-dangling",
                f"shard map references local doc {local} missing from "
                f"shard {shard}",
            )
        report.ran("placement.journal-empty")
        for entry in self.journal.pending():
            if shard in (entry.from_shard, entry.to_shard):
                report.add(
                    "placement.journal-empty",
                    f"unfinished rebalance of doc {entry.doc_id} "
                    f"({entry.from_shard}→{entry.to_shard}, "
                    f"state {entry.state!r}); run recover()",
                )
        return report

    # -- querying -----------------------------------------------------------------

    def targets(
        self, doc_id: int | None = None
    ) -> dict[int, list[tuple[int, int]]]:
        """What a read addresses, in the executor's terms — ``{shard:
        [(global_doc_id, local_doc_id), ...]}``: the one shard owning
        *doc_id*, or every shard with all its documents (empty shards
        included — they are queried and contribute nothing)."""
        if doc_id is not None:
            record = self.shard_map.resolve(doc_id)
            return {record.shard: [(doc_id, record.local_doc_id)]}
        return {
            shard: self.shard_map.docs_for_shard(shard)
            for shard in self.pools
        }

    def query_pres(
        self,
        doc_id: int,
        xpath: str,
        deadline: float | None = None,
    ) -> list[int]:
        """Matching node ids of one document — pruned to its shard,
        executed on a pooled read connection."""
        return self.executor.query(
            xpath, self.targets(doc_id), deadline=deadline
        ).pres

    def _on_document(self, doc_id: int, call, deadline: float | None = None):
        """``call(scheme, local_doc_id)`` on a pooled read connection of
        the document's shard (admission-gated like every serving
        read)."""
        record = self.shard_map.resolve(doc_id)
        return self.executor.run_on_shard(
            record.shard,
            lambda session: call(session.scheme, record.local_doc_id),
            timeout=deadline,
        )

    def query(
        self, doc_id: int, xpath: str, deadline: float | None = None
    ) -> list[Node]:
        """Matching nodes of one document, rebuilt from its rows."""
        return self._on_document(
            doc_id,
            lambda scheme, local: scheme.query_nodes(local, xpath),
            deadline,
        )

    def query_xml(
        self, doc_id: int, xpath: str, deadline: float | None = None
    ) -> list[str]:
        """Matching nodes of one document as serialized fragments
        (rows → text; no tree is built)."""
        return self._on_document(
            doc_id,
            lambda scheme, local: scheme.query_xml(local, xpath),
            deadline,
        )

    def query_all(
        self,
        xpath: str,
        deadline: float | None = None,
    ) -> ScatterResult:
        """Scatter *xpath* to every shard; gather ``(doc_id, pre)``
        rows merged in (document, document-order).  Every shard is
        queried — including empty ones, which simply contribute nothing.
        """
        return self.executor.query(xpath, self.targets(), deadline=deadline)

    def query_report(self, doc_id: int, xpath: str) -> QueryReport:
        """The full per-query cost record for one doc-scoped query, run
        on a pooled read connection of the document's shard."""
        record = self.shard_map.resolve(doc_id)
        return self.executor.run_on_shard(
            record.shard,
            lambda session: build_query_report(
                session.db, session.scheme, record.local_doc_id, xpath
            ),
        )

    def reconstruct(self, doc_id: int) -> Document:
        """Rebuild one document from its shard."""
        return self._on_document(
            doc_id, lambda scheme, local: scheme.reconstruct(local)
        )

    def reconstruct_xml(self, doc_id: int) -> str:
        """One document as XML text, published on its shard."""
        return self._on_document(
            doc_id, lambda scheme, local: scheme.reconstruct_xml(local)
        )

    # -- operations surface -------------------------------------------------------

    #: Outcomes counted against the availability budget: sheds, misses,
    #: and failures all consume it; ``ok``/``partial`` do not.
    _BUDGET_ERRORS = {
        "query": ("overloaded", "deadline_exceeded", "shard_error",
                  "error"),
        "update": ("error",),
    }

    def _error_budget(
        self, window_seconds: float = 60.0, budget: float = 0.01
    ) -> dict:
        """Per op class: request/error counts over the window and the
        *burn rate* — error ratio over the allowed ratio (1.0 means
        exactly spending the budget; >1 means burning ahead of it)."""
        out = {}
        for op, error_outcomes in self._BUDGET_ERRORS.items():
            good_outcomes = ("ok", "partial") if op == "query" else ("ok",)
            errors = sum(
                self.metrics.counter_window_count(
                    f"serve.{op}.outcome.{outcome}", window_seconds
                )
                for outcome in error_outcomes
            )
            total = errors + sum(
                self.metrics.counter_window_count(
                    f"serve.{op}.outcome.{outcome}", window_seconds
                )
                for outcome in good_outcomes
            )
            error_rate = (errors / total) if total else 0.0
            out[op] = {
                "window_seconds": window_seconds,
                "requests": total,
                "errors": errors,
                "error_rate": error_rate,
                "budget": budget,
                "burn_rate": (error_rate / budget) if budget else 0.0,
            }
        return out

    def health(self, window_seconds: float = 60.0) -> dict:
        """Liveness and load: per-shard pool reachability, document
        counts, in-flight occupancy, and error-budget burn per operation
        class.

        ``status`` is ``"ok"`` unless some shard is down (``"degraded"``)
        — a busy shard (pool momentarily exhausted) stays ``ok``: it is
        serving, just saturated.  The gateway's ``/healthz`` maps non-ok
        statuses to HTTP 503.
        """
        counts = self.shard_counts()
        shards = []
        status = "ok"
        for shard in range(len(self.writers)):
            pool = self.pools[shard]
            shard_status = "ok"
            try:
                # One cheap acquire proves the shard file answers; a
                # short timeout keeps scrapes from queueing behind load.
                with pool.connection(timeout=0.05):
                    pass
            except Overloaded:
                shard_status = "busy"
            except Exception:
                # StorageError, sqlite errors, injected faults — a probe
                # that cannot even acquire a connection is a down shard.
                shard_status = "down"
                status = "degraded"
            shards.append({
                "shard": shard,
                "status": shard_status,
                "docs": counts.get(shard, 0),
                "pool": pool.stats(),
            })
        return {
            "status": status,
            "scheme": self.scheme_name,
            "shards": shards,
            "in_flight": {
                "value": self.metrics.gauge("serve.in_flight").value,
                "limit": self.executor.max_in_flight,
            },
            "error_budget": self._error_budget(window_seconds),
        }

    def facts(self) -> dict:
        """Static-ish store facts for the ``/snapshot`` document."""
        return {
            "directory": self.directory,
            "scheme": self.scheme_name,
            "placement": self.placement,
            "shards": len(self.writers),
            "documents": len(self.shard_map),
            "shard_counts": self.shard_counts(),
        }

    def serve_gateway(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        **kwargs,
    ):
        """Start (or return) the HTTP/JSON gateway for this store —
        the process's one HTTP surface, for queries and ops alike.

        The network front door (:class:`~repro.serve.gateway.Gateway`):
        ``/query`` (materialized JSON or streamed NDJSON) with
        per-client admission quotas layered on the executor's global
        gate, and the read-only ops routes ``/metrics`` (Prometheus
        text), ``/snapshot`` (``python -m repro.obs.top --url
        <gateway.url>`` renders it live), ``/healthz`` and ``/stats``.
        Extra *kwargs* (``quota_rate``, ``idle_timeout``,
        ``analyzer``, ...) pass through to the gateway constructor.
        When the store has no request log yet, an in-memory one is
        attached so wide events have a sink and ``/snapshot`` a tail.
        Stopped by :meth:`close` (or ``.stop()``).
        """
        if self._gateway is not None:
            return self._gateway
        from repro.serve.gateway import Gateway

        if self.executor.request_log is None:
            self.executor.request_log = RequestLog(capacity=1024)
            self._owned_request_log = True
        self._gateway = Gateway(self, host=host, port=port, **kwargs)
        self._gateway.start()
        return self._gateway

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        if self._gateway is not None:
            self._gateway.stop()
            self._gateway = None
        if self._owned_request_log and self.executor.request_log is not None:
            self.executor.request_log.close()
        self.executor.close()
        for pool in self.pools.values():
            pool.close()
        for writer in self.writers:
            writer.close()
        self.catalog_db.close()

    def __enter__(self) -> "ShardedStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


#: Module-level alias of :meth:`ShardedStore.open`.
open_sharded = ShardedStore.open
