"""Managed sqlite3 connections for the storage layer.

The :class:`Database` wrapper centralizes connection configuration
(pragmas selected by a *durability profile*), offers explicit nestable
transactions, transient-error retries, batched inserts, and the
introspection helpers the benchmark harness uses (row counts, byte
accounting for experiment E1).

When opened with a :class:`~repro.obs.trace.Tracer` every data statement
is additionally instrumented: a ``sql.statement`` span records the SQL
text, parameter/batch count, duration, row count, and per-statement
retry attempts, and statements slower than the tracer's
``slow_query_threshold`` get their ``EXPLAIN QUERY PLAN`` captured into
the span.  With the default (disabled) tracer the hot path pays a single
boolean check.

Durability profiles
-------------------

``bulk_load``
    The seed's load-tuned pragmas (in-memory journal, ``synchronous =
    OFF``).  Fastest; a crash mid-load can corrupt a file-backed
    database.  The right profile for the paper's warm-cache experiments
    and for rebuildable scratch databases.
``durable``
    WAL journal, ``synchronous = NORMAL``, a busy timeout.  Survives
    process crashes (power loss can lose the last transactions but
    never corrupts); concurrent readers don't block the writer.  The
    default for anything that outlives the process.
``paranoid``
    WAL journal with ``synchronous = FULL`` and a longer busy timeout:
    every commit is fsync'd, surviving power failure at commit
    granularity.
"""

from __future__ import annotations

import os
import sqlite3
from contextlib import contextmanager
from collections.abc import Callable, Iterable, Iterator, Sequence
from urllib.parse import quote

from repro.errors import (
    ReadOnlyDatabaseError,
    StorageError,
    TransientStorageError,
    XmlRelError,
)
from repro.obs.trace import NULL_TRACER, Tracer
from repro.relational.introspect import (
    SchemaCatalog,
    TableInfo,
    describe_table,
    stored_tables,
)
from repro.relational.plancache import PlanCache
from repro.relational.retry import RetryPolicy, is_transient_error, with_retries
from repro.relational.schema import Table, quote_identifier

#: Durability profile name -> ordered pragma assignments.
DURABILITY_PROFILES: dict[str, tuple[tuple[str, str], ...]] = {
    "bulk_load": (
        ("journal_mode", "MEMORY"),
        ("synchronous", "OFF"),
        ("temp_store", "MEMORY"),
    ),
    "durable": (
        ("journal_mode", "WAL"),
        ("synchronous", "NORMAL"),
        ("busy_timeout", "5000"),
    ),
    "paranoid": (
        ("journal_mode", "WAL"),
        ("synchronous", "FULL"),
        ("busy_timeout", "10000"),
    ),
}

#: The linked sqlite library's version (the bench tables record it).
SQLITE_VERSION = sqlite3.sqlite_version

#: Plan-lint modes: ``default`` attaches diagnostics to cached plans
#: (walked when first read), ``strict`` additionally raises
#: :class:`~repro.errors.PlanLintError` on error-severity findings.
LINT_MODES = ("default", "strict")

#: Statement head keywords a read-only connection rejects before the
#: engine sees them (``PRAGMA``/``EXPLAIN``/``SELECT``/``WITH`` pass).
_WRITE_KEYWORDS = frozenset(
    {
        "INSERT", "UPDATE", "DELETE", "REPLACE", "CREATE", "DROP",
        "ALTER", "VACUUM", "REINDEX", "ANALYZE",
    }
)


#: Statement-keyword memo.  The serving layer replays a small set of
#: interned SQL strings (cached plans, schema statements) thousands of
#: times; ``lstrip()`` copies the whole statement, so the scan is worth
#: remembering.  Bounded so adversarial statement churn cannot grow it.
_KEYWORD_CACHE: dict[str, str] = {}
_KEYWORD_CACHE_MAX = 4096


def _statement_keyword(sql: str) -> str:
    """The first keyword of *sql*, uppercased (empty for blank text)."""
    keyword = _KEYWORD_CACHE.get(sql)
    if keyword is None:
        head = sql.lstrip()
        end = 0
        while end < len(head) and (head[end].isalpha() or head[end] == "_"):
            end += 1
        keyword = head[:end].upper()
        if len(_KEYWORD_CACHE) < _KEYWORD_CACHE_MAX:
            _KEYWORD_CACHE[sql] = keyword
    return keyword


def _xpath_num(value) -> float | None:
    """The XPath ``number()`` conversion as an SQL scalar function.

    NaN results are represented as NULL so comparisons against them are
    never satisfied (SQL three-valued logic matches XPath's NaN rules).
    """
    if value is None:
        return None
    try:
        return float(str(value).strip())
    except ValueError:
        return None


def fs_path(path) -> str:
    """The path rule of every open door: a ``str`` or an
    ``os.PathLike`` opens, anything else is a :class:`StorageError`."""
    if isinstance(path, (str, os.PathLike)):
        return os.fspath(path)
    raise StorageError(
        "path must be a string or os.PathLike (use ':memory:' for RAM), "
        f"not {type(path).__name__}"
    )


class Database:
    """A managed sqlite3 database (file-backed or in-memory)."""

    def __init__(
        self,
        path: str = ":memory:",
        profile: str = "bulk_load",
        retry: RetryPolicy | None = None,
        tracer: Tracer | None = None,
        lint: str = "default",
        read_only: bool = False,
        check_same_thread: bool = True,
        plan_cache: PlanCache | None = None,
    ) -> None:
        path = fs_path(path)
        if profile not in DURABILITY_PROFILES:
            raise StorageError(
                f"unknown durability profile {profile!r}; available: "
                + ", ".join(sorted(DURABILITY_PROFILES))
            )
        if lint not in LINT_MODES:
            raise StorageError(
                f"unknown lint mode {lint!r}; available: "
                + ", ".join(LINT_MODES)
            )
        if read_only and path == ":memory:":
            raise StorageError(
                "a read-only database must be file-backed (an in-memory "
                "database would open empty)"
            )
        self.path = path
        self.profile = profile
        self.retry = retry
        #: When True, write statements are rejected with
        #: :class:`~repro.errors.ReadOnlyDatabaseError` before reaching
        #: the engine, and the file is opened ``mode=ro`` so even a
        #: slipped-through write cannot touch it.
        self.read_only = read_only
        #: Observability sink; the shared disabled tracer by default, so
        #: instrumented paths cost one ``enabled`` check when off.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: LRU of rendered XPath→SQL translations; every scheme on this
        #: database translates through it.  Pass ``plan_cache=`` to share
        #: one (thread-safe) cache across many connections — the serving
        #: layer's pools do, so each shard warms one cache, not one per
        #: pooled connection (see :mod:`repro.relational.plancache`).
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        #: Plan-lint mode: every translation is linted when its verdict
        #: is first read (see :mod:`repro.analysis.sqllint`).
        self.lint_mode = lint
        #: The plan linter's view of the schema at one ``PRAGMA
        #: schema_version``: that version, every stored table and view
        #: (lower-cased name → ``(name, type)``), and the
        #: :class:`TableInfo` of each one introspected so far — each at
        #: most once per version.  Replaced whole when the version moves.
        self._catalog: tuple[
            int, dict[str, tuple[str, str]], dict[str, TableInfo]
        ] | None = None
        #: Plan-lint verdicts keyed ``(schema_version, sql)``, or the
        #: pending walk that computes one — rendering is deterministic,
        #: so an identical statement never re-lints.
        self.lint_memo: dict[tuple[int, str], tuple | Callable] = {}
        self._txn_depth = 0
        self._savepoint_seq = 0
        pragmas = DURABILITY_PROFILES[profile]
        if read_only:
            # The journal/synchronous pragmas are write-side settings (a
            # WAL switch even writes the header); a reader only needs
            # the busy timeout, plus query_only as defense in depth.
            pragmas = [p for p in pragmas if p[0] == "busy_timeout"]
            pragmas.append(("query_only", "ON"))
        self._conn = None
        try:
            self._conn = sqlite3.connect(
                f"file:{quote(path)}?mode=ro" if read_only else path,
                uri=read_only,
                check_same_thread=check_same_thread,
            )
            self._conn.isolation_level = None  # explicit transactions
            for pragma, value in (*pragmas, ("foreign_keys", "ON")):
                self._conn.execute(f"PRAGMA {pragma} = {value}")
        except sqlite3.Error as error:
            if self._conn is not None:
                self._conn.close()
            raise StorageError(
                f"cannot open database {path!r}: {error}"
            ) from error
        # XPath-faithful numeric conversion: returns NULL (not 0.0, as
        # CAST would) for non-numeric text, so NaN comparisons are false
        # in SQL exactly as they are in XPath.
        self.create_function("xpath_num", 1, _xpath_num)

    def create_function(
        self, name: str, arity: int, fn: Callable, deterministic: bool = True
    ) -> None:
        """Register a scalar SQL function on this connection.

        The public door for translators needing engine-side helpers
        (e.g. xrel's path matcher) — reaching for the private ``_conn``
        bypasses this wrapper and trips the repo lint (L002).
        """
        try:
            self._conn.create_function(
                name, arity, fn, deterministic=deterministic
            )
        except sqlite3.Error as error:
            raise StorageError(
                f"cannot register SQL function {name!r}: {error}"
            ) from error

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- execution -------------------------------------------------------------------

    def _check_writable(self, sql: str) -> None:
        """Reject write statements early on a read-only connection."""
        if self.read_only and _statement_keyword(sql) in _WRITE_KEYWORDS:
            raise ReadOnlyDatabaseError(
                f"write statement on read-only database {self.path!r}: "
                f"{sql.lstrip()[:80]}"
            )

    def _raw_execute(self, sql: str, params: Sequence = ()) -> sqlite3.Cursor:
        """Single attempt of one statement.  The fault-injection test
        double (:mod:`repro.reliability.faults`) overrides this hook, so
        every data statement — but not transaction control — passes
        through it."""
        return self._conn.execute(sql, params)

    def _raw_executemany(self, sql: str, rows) -> None:
        self._conn.executemany(sql, rows)

    def ping(self) -> bool:
        """Liveness probe: does the connection still answer ``SELECT 1``?

        Deliberately outside tracing, retries, and statement metrics —
        connection pools run this on every acquire, and a probe that
        emitted a ``sql.statement`` span per checkout would bury real
        query spans under health-check noise (and pay tracing overhead
        on the hottest path in the serving layer).  It still goes
        through :meth:`_raw_execute` so fault injection sees it.
        """
        try:
            return self._raw_execute("SELECT 1", ()).fetchone() == (1,)
        except (sqlite3.Error, XmlRelError):
            # Engine and storage-layer failures mean "not alive";
            # anything else (e.g. an injected crash) propagates so
            # callers see the shard's real failure mode.
            return False

    def _convert_error(
        self, error: BaseException, sql: str
    ) -> StorageError:
        if is_transient_error(error):
            attempts = self.retry.max_attempts if self.retry else 1
            return TransientStorageError(
                f"transient SQL error after {attempts} attempt(s): "
                f"{error}\nin: {sql}",
                attempts=attempts,
            )
        return StorageError(f"SQL error: {error}\nin: {sql}")

    def _traced_statement(
        self,
        sql: str,
        params: Sequence,
        runner: Callable,
        kind: str,
        batch_size: int | None = None,
        fetch: bool = False,
    ):
        """Run one statement under a ``sql.statement`` span — with
        *fetch*, its ``fetchall()`` too, so the span covers the stepping
        and carries the row count.

        Records duration, SQL text, parameter count, retry-attempt
        count (wired through :func:`with_retries`' ``on_retry`` hook),
        and — above the tracer's ``slow_query_threshold`` — the
        statement's ``EXPLAIN QUERY PLAN`` lines.
        """
        tracer = self.tracer
        metrics = tracer.metrics
        retries = 0

        def on_retry(attempt: int, error: BaseException) -> None:
            nonlocal retries
            retries += 1
            metrics.counter("db.retries").inc()
            metrics.counter("db.transient_errors").inc()

        span = tracer.start_span(
            "sql.statement",
            kind=kind,
            sql=tracer.clip_sql(sql),
            params=batch_size if batch_size is not None else len(params),
        )
        try:
            result = runner(on_retry)
            if fetch:
                result = result.fetchall()
        except sqlite3.Error as error:
            metrics.counter("db.errors").inc()
            if is_transient_error(error):
                metrics.counter("db.transient_errors").inc()
            span.set(retries=retries, error=str(error))
            tracer.end_span(span)
            # Failed statements spend real time too — skipping them here
            # would bias the latency distribution toward successes.
            metrics.histogram("db.statement_seconds").observe(span.duration)
            raise self._convert_error(error, sql) from error
        except BaseException:
            metrics.counter("db.errors").inc()
            span.set(retries=retries)
            tracer.end_span(span)
            metrics.histogram("db.statement_seconds").observe(span.duration)
            raise
        span.set(retries=retries)
        if fetch:
            span.set(rows=len(result))
            metrics.counter("db.rows_fetched").inc(len(result))
        elif batch_size is not None:
            span.set(rows=batch_size)
            metrics.counter("db.rows_written").inc(batch_size)
        elif (
            getattr(result, "rowcount", -1) >= 0
            and _statement_keyword(sql) != "SELECT"
        ):
            span.set(rows=result.rowcount)
        tracer.end_span(span)
        metrics.counter("db.statements").inc()
        metrics.histogram("db.statement_seconds").observe(span.duration)
        threshold = tracer.slow_query_threshold
        if threshold is not None and span.duration >= threshold:
            span.set(plan=self._capture_plan(sql, params))
            metrics.counter("db.slow_statements").inc()
        return result

    def _capture_plan(self, sql: str, params: Sequence) -> list[str]:
        """Best-effort ``EXPLAIN QUERY PLAN`` lines for a slow statement.

        Runs on the raw connection — outside retry, tracing, and fault
        injection — so plan capture can never recurse or fault.
        """
        head = sql.lstrip()[:10].upper()
        if not head.startswith(("SELECT", "INSERT", "UPDATE", "DELETE",
                                "WITH")):
            return []
        try:
            rows = self._conn.execute(
                f"EXPLAIN QUERY PLAN {sql}", params
            ).fetchall()
        except sqlite3.Error:
            return []
        return [row[-1] for row in rows]

    def execute(self, sql: str, params: Sequence = ()) -> sqlite3.Cursor:
        """Execute one statement, returning the cursor.

        Transient busy/locked errors are retried under the configured
        :class:`~repro.relational.retry.RetryPolicy` (if any) and
        surface as :class:`~repro.errors.TransientStorageError` once
        exhausted; other engine errors raise :class:`StorageError`.
        """
        return self._statement(sql, params, fetch=False)

    def _statement(self, sql: str, params: Sequence, fetch: bool):
        """:meth:`execute`, and with *fetch* :meth:`query`: the rows are
        fetched inside the same error conversion and the same span, so
        an error raised while stepping is a :class:`StorageError` too."""
        self._check_writable(sql)
        if not self.tracer.enabled:
            try:
                cursor = with_retries(
                    self.retry, self._raw_execute, sql, params
                )
                return cursor.fetchall() if fetch else cursor
            except sqlite3.Error as error:
                raise self._convert_error(error, sql) from error
        return self._traced_statement(
            sql,
            params,
            lambda on_retry: with_retries(
                self.retry, self._raw_execute, sql, params,
                on_retry=on_retry,
            ),
            kind="execute",
            fetch=fetch,
        )

    def executemany(self, sql: str, rows: Iterable[Sequence]) -> None:
        self._check_writable(sql)
        # Materialize the batch up front.  Callers pass one-shot
        # generators; both the retry loop (re-running an attempt after a
        # partial consumption must see the full batch, never a silently
        # empty/short remainder) and the instrumentation (batch size)
        # need a replayable sequence.
        if not isinstance(rows, (list, tuple)):
            rows = list(rows)

        if self.retry is not None:
            # A batch can fail partway; re-running it naively would
            # duplicate the rows already applied.  Scope each attempt
            # to a savepoint that the retry loop rewinds.
            def attempt() -> None:
                with self.transaction():
                    self._raw_executemany(sql, rows)

            def runner(on_retry):
                return with_retries(self.retry, attempt, on_retry=on_retry)
        else:
            def runner(on_retry):
                return self._raw_executemany(sql, rows)

        if not self.tracer.enabled:
            try:
                runner(None)
            except sqlite3.Error as error:
                raise self._convert_error(error, sql) from error
            return
        self._traced_statement(
            sql, (), runner, kind="executemany", batch_size=len(rows)
        )

    def executescript(self, script: str) -> None:
        self._check_writable(script)
        try:
            self._conn.executescript(script)
        except sqlite3.Error as error:
            raise StorageError(f"SQL error: {error}") from error

    def query(self, sql: str, params: Sequence = ()) -> list[tuple]:
        """Execute and fetch all rows (see :meth:`_statement`)."""
        return self._statement(sql, params, fetch=True)

    def query_one(self, sql: str, params: Sequence = ()) -> tuple | None:
        """Execute and fetch the first row (or None)."""
        return self.execute(sql, params).fetchone()

    def scalar(self, sql: str, params: Sequence = ()):
        """Execute and return the single value of the single row."""
        row = self.query_one(sql, params)
        return row[0] if row is not None else None

    @property
    def in_transaction(self) -> bool:
        """True while an explicit or implicit transaction is open."""
        return self._conn.in_transaction

    def _control(self, sql: str) -> None:
        """Transaction-control statement: bypasses the fault-injection
        hook (a crash test double must still be able to roll back) but
        honours the retry policy — BEGIN is where ``SQLITE_BUSY``
        surfaces under contention."""
        on_retry = None
        if self.tracer.enabled:
            metrics = self.tracer.metrics

            def on_retry(attempt, error):
                metrics.counter("db.retries").inc()
                metrics.counter("db.transient_errors").inc()

        try:
            with_retries(self.retry, self._conn.execute, sql,
                         on_retry=on_retry)
        except sqlite3.Error as error:
            raise self._convert_error(error, sql) from error

    @contextmanager
    def transaction(self) -> Iterator[None]:
        """Run a block atomically; nestable.

        The outermost level is BEGIN/COMMIT (ROLLBACK on exception);
        nested levels become SAVEPOINT/RELEASE so an inner failure (or a
        retried inner block) rolls back cleanly without killing the
        enclosing transaction.
        """
        metrics = self.tracer.metrics if self.tracer.enabled else None
        if self._txn_depth == 0:
            self._control("BEGIN")
            self._txn_depth = 1
            try:
                yield
            except BaseException:
                self._txn_depth = 0
                if self._conn.in_transaction:
                    self._conn.execute("ROLLBACK")
                if metrics is not None:
                    metrics.counter("db.rollbacks").inc()
                raise
            self._txn_depth = 0
            self._control("COMMIT")
            if metrics is not None:
                metrics.counter("db.transactions").inc()
        else:
            self._savepoint_seq += 1
            name = f"xmlrel_sp_{self._savepoint_seq}"
            self._control(f"SAVEPOINT {name}")
            self._txn_depth += 1
            if metrics is not None:
                metrics.counter("db.savepoints").inc()
                # High-water mark of nesting depth (depth 1 = outermost).
                metrics.gauge("db.savepoint_depth").set(self._txn_depth)
            try:
                yield
            except BaseException:
                self._txn_depth -= 1
                if self._conn.in_transaction:
                    self._conn.execute(f"ROLLBACK TO {name}")
                    self._conn.execute(f"RELEASE {name}")
                raise
            self._txn_depth -= 1
            self._control(f"RELEASE {name}")

    def run_transaction(self, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside :meth:`transaction`,
        retrying the *whole block* when it fails transiently.

        This is the coarse-grained counterpart of the per-statement
        retry in :meth:`execute`: a block that lost a lock race is
        rolled back (to its savepoint when nested) and re-executed from
        the top, so partial effects never leak between attempts.
        """

        def attempt():
            with self.transaction():
                return fn(*args, **kwargs)

        return with_retries(self.retry, attempt)

    # -- DDL ----------------------------------------------------------------------------

    def create_table(self, table: Table) -> None:
        """Create *table* and its indexes.

        On a read-only connection this is a no-op: the schema was
        created by the writer that owns the file, and the scheme/catalog
        constructors that call this must still work over pooled read
        connections.
        """
        if self.read_only:
            return
        for statement in table.ddl_statements():
            self.execute(statement)

    def drop_table(self, name: str) -> None:
        self.execute(f"DROP TABLE IF EXISTS {quote_identifier(name)}")

    def insert_rows(self, table: Table, rows: Iterable[Sequence]) -> None:
        """Bulk-insert *rows* (each covering every column of *table*)."""
        self.executemany(table.insert_sql(), rows)

    # -- introspection ----------------------------------------------------------------------

    def table_names(self) -> list[str]:
        rows = self.query(
            "SELECT name FROM sqlite_master "
            "WHERE type = 'table' AND name NOT LIKE 'sqlite_%' ORDER BY name"
        )
        return [name for (name,) in rows]

    def table_exists(self, name: str) -> bool:
        return (
            self.scalar(
                "SELECT COUNT(*) FROM sqlite_master "
                "WHERE type = 'table' AND name = ?",
                (name,),
            )
            > 0
        )

    def row_count(self, table: str) -> int:
        return self.scalar(f"SELECT COUNT(*) FROM {quote_identifier(table)}")

    def table_bytes(self, table: str) -> int:
        """Approximate logical size of *table* in bytes.

        Sums the rendered length of every column value of every row — an
        engine-independent measure of the *mapping's* storage demand, which
        is what experiment E1 compares (page-level overheads would only add
        engine noise).
        """
        columns = [
            row[1]
            for row in self.query(
                f"PRAGMA table_info({quote_identifier(table)})"
            )
        ]
        if not columns:
            raise StorageError(f"no such table: {table}")
        length_sum = " + ".join(
            f"COALESCE(LENGTH(CAST({quote_identifier(c)} AS TEXT)), 0)"
            for c in columns
        )
        total = self.scalar(
            f"SELECT SUM({length_sum}) FROM {quote_identifier(table)}"
        )
        return int(total or 0)

    def database_bytes(self, tables: Iterable[str] | None = None) -> int:
        """Total logical bytes across *tables* (default: all tables)."""
        names = list(tables) if tables is not None else self.table_names()
        return sum(self.table_bytes(name) for name in names)

    def table_cells(self, table: str) -> int:
        """Row count × column count — the slot measure of a mapping.

        Engine-independent: a conventional fixed-layout RDBMS pays for
        every slot whether NULL or not, which is the published complaint
        about the universal table ("huge number of fields, most NULL").
        """
        columns = self.query(f"PRAGMA table_info({quote_identifier(table)})")
        if not columns:
            raise StorageError(f"no such table: {table}")
        return self.row_count(table) * len(columns)

    def database_cells(self, tables: Iterable[str] | None = None) -> int:
        """Total slots across *tables* (default: all tables)."""
        names = list(tables) if tables is not None else self.table_names()
        return sum(self.table_cells(name) for name in names)

    def file_bytes(self) -> int:
        """Physical size: pages in use × page size (after VACUUM).

        Unlike :meth:`database_bytes` (pure value lengths), this includes
        per-row/per-column storage overhead — the cost that penalizes
        wide sparse rows like the universal table's (experiment E1).
        Works for in-memory databases too (sqlite reports their pages).

        VACUUM cannot run inside a transaction, so calling this with one
        open raises a clear :class:`StorageError` instead of sqlite's
        opaque complaint.
        """
        if self._txn_depth or self._conn.in_transaction:
            raise StorageError(
                "file_bytes() runs VACUUM, which cannot execute inside "
                "an open transaction; call it after the transaction "
                "commits"
            )
        self.execute("VACUUM")
        page_count = int(self.scalar("PRAGMA page_count"))
        page_size = int(self.scalar("PRAGMA page_size"))
        free = int(self.scalar("PRAGMA freelist_count"))
        return (page_count - free) * page_size

    def schema_catalog(self) -> SchemaCatalog:
        """The current schema as the plan linter sees it: every stored
        table and view (see :meth:`catalog_of`)."""
        state = self._catalog_state()
        return self._snapshot(state, state[1])

    def catalog_of(self, tables: Iterable[str]) -> SchemaCatalog:
        """The plan linter's snapshot of those of *tables* that exist —
        a render passes the tables its statement names, so the snapshot
        grows with the statement, not the database.

        Each table is introspected at most once per ``PRAGMA
        schema_version`` (bumped by every DDL statement, including the
        schemes' dynamic ALTER/CREATE), so a steady-state render pays
        one PRAGMA.  Runs on the raw connection deliberately:
        introspection must not emit ``sql.statement`` spans — the
        fast-path tests count those per query — nor pass through fault
        injection.
        """
        return self._snapshot(self._catalog_state(), tables)

    def _catalog_state(self):
        """:attr:`_catalog` at the current schema version."""
        version = int(
            self._conn.execute("PRAGMA schema_version").fetchone()[0]
        )
        state = self._catalog
        if state is None or state[0] != version:
            state = self._catalog = (version, stored_tables(self._conn), {})
        return state

    def _snapshot(self, state, tables: Iterable[str]) -> SchemaCatalog:
        version, stored, infos = state
        snapshot: dict[str, TableInfo] = {}
        for table in tables:
            key = table.lower()
            info = infos.get(key)
            if info is None:
                if key not in stored:
                    continue  # a CTE, or a table that does not exist
                info = infos[key] = describe_table(self._conn, *stored[key])
            snapshot[key] = info
        return SchemaCatalog(tables=snapshot, schema_version=version)

    def explain_plan(self, sql: str, params: Sequence = ()) -> list[str]:
        """The EXPLAIN QUERY PLAN detail lines (index-usage inspection)."""
        rows = self.query(f"EXPLAIN QUERY PLAN {sql}", params)
        return [row[-1] for row in rows]

    def analyze(self) -> None:
        """Refresh sqlite's optimizer statistics."""
        self.execute("ANALYZE")
