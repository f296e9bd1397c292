"""Exception hierarchy for the xmlrel reproduction.

Every error raised by the library derives from :class:`XmlRelError` so that
callers can catch library failures with a single ``except`` clause while the
concrete subclasses preserve the failing layer (parsing, shredding, query
translation, ...).
"""

from __future__ import annotations


class XmlRelError(Exception):
    """Base class for all errors raised by this library."""


class XmlSyntaxError(XmlRelError):
    """Raised when an XML document is not well formed.

    Carries the 1-based ``line`` and ``column`` of the offending position so
    error messages can point at the exact spot in the source text.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class DtdSyntaxError(XmlSyntaxError):
    """Raised when a DTD (internal or external subset) cannot be parsed."""


class XPathSyntaxError(XmlRelError):
    """Raised when an XPath expression cannot be parsed.

    ``position`` is the 0-based character offset within the expression.
    """

    def __init__(self, message: str, position: int = 0):
        self.position = position
        super().__init__(f"{message} (at offset {position})")


class XPathEvaluationError(XmlRelError):
    """Raised when a syntactically valid XPath cannot be evaluated."""


class UnsupportedQueryError(XmlRelError):
    """Raised when a query uses a feature a given translator cannot compile.

    The in-memory evaluator supports the full implemented XPath subset; the
    per-scheme SQL translators may each reject a narrower set (recorded in
    their docstrings).  This error names the feature and the scheme.
    """

    def __init__(self, feature: str, scheme: str | None = None):
        self.feature = feature
        self.scheme = scheme
        where = f" by scheme '{scheme}'" if scheme else ""
        super().__init__(f"unsupported query feature{where}: {feature}")


class StorageError(XmlRelError):
    """Raised on shredding/reconstruction failures inside a storage scheme."""


class TransientStorageError(StorageError):
    """Raised when a *transient* engine condition (``SQLITE_BUSY`` /
    ``SQLITE_LOCKED``) persists past the retry budget.

    Unlike a plain :class:`StorageError`, the failed operation did not
    corrupt anything and is safe to retry at a coarser granularity (e.g.
    re-run the whole transaction); ``attempts`` records how many tries
    the :class:`~repro.relational.retry.RetryPolicy` made before giving
    up (1 when no policy was configured).
    """

    def __init__(self, message: str, attempts: int = 1):
        self.attempts = attempts
        super().__init__(message)


class SchemaMappingError(StorageError):
    """Raised when a DTD cannot be mapped to a relational schema."""


class DocumentNotFoundError(StorageError):
    """Raised when a document id is absent from the store catalog."""

    def __init__(self, doc_id: int):
        self.doc_id = doc_id
        super().__init__(f"no stored document with id {doc_id}")


class PlanLintError(XmlRelError):
    """Raised in *strict* lint mode when a translated SQL plan carries
    error-severity diagnostics (see :mod:`repro.analysis.sqllint`).

    ``diagnostics`` holds the offending
    :class:`~repro.analysis.diagnostics.Diagnostic` records; the message
    summarizes them so the failure is readable without unpacking.
    """

    def __init__(self, diagnostics):
        self.diagnostics = tuple(diagnostics)
        summary = "; ".join(d.format() for d in self.diagnostics)
        super().__init__(f"plan lint failed: {summary}")


class LockDisciplineError(XmlRelError):
    """Raised by the runtime lock-order harness
    (:mod:`repro.analysis.lockharness`) when proceeding would deadlock:
    a non-reentrant lock re-acquired by the thread already holding it.
    Order violations that merely *risk* deadlock are recorded, not
    raised — the harness reports them at test teardown."""


class ReadOnlyDatabaseError(StorageError):
    """Raised when a write statement reaches a read-only connection.

    A :class:`~repro.relational.database.Database` opened with
    ``read_only=True`` rejects INSERT/UPDATE/DELETE/DDL before the
    engine sees them, so callers get this typed error instead of a raw
    ``sqlite3.OperationalError`` surfacing from deep inside a
    transaction.
    """


class ServingError(XmlRelError):
    """Base class for errors raised by the concurrent serving layer
    (:mod:`repro.serve`)."""


class Overloaded(ServingError):
    """Raised when the serving layer sheds load: the admission gate is
    full (``in_flight`` requests already running against a limit of
    ``limit``) or a connection pool could not hand out a connection
    within its acquire timeout.

    The request was rejected *before* doing any work — retrying after
    backoff is always safe.
    """

    def __init__(self, message: str, in_flight: int = 0, limit: int = 0):
        self.in_flight = in_flight
        self.limit = limit
        super().__init__(message)


class DeadlineExceeded(ServingError):
    """Raised when a query misses its per-query deadline.

    ``deadline_seconds`` is the budget the caller gave; ``elapsed``
    how long the query had been running when the serving layer gave up.
    Work still in flight on other shards is abandoned (its results are
    discarded), never returned partially.
    """

    def __init__(
        self, message: str, deadline_seconds: float = 0.0,
        elapsed: float = 0.0,
    ):
        self.deadline_seconds = deadline_seconds
        self.elapsed = elapsed
        super().__init__(message)


class ShardError(ServingError):
    """Raised (in fail-fast mode) when one shard of a scatter-gather
    query fails; ``shard`` names the failing shard, ``cause`` the
    underlying error."""

    def __init__(self, shard: int, cause: BaseException):
        self.shard = shard
        self.cause = cause
        super().__init__(f"shard {shard} failed: {cause}")


class ProtocolError(ServingError):
    """Raised when a network request to the serving layer is malformed:
    unparsable JSON body, missing/mistyped fields, unknown routes or
    parameter values.  Always the *client's* fault — maps to HTTP 400.
    """


class UpdateError(XmlRelError):
    """Raised when an update (insert/delete) cannot be applied."""


class WorkloadError(XmlRelError):
    """Raised on invalid workload-generator parameters."""


#: The serving-error → HTTP-status table — the single source of truth
#: for the network gateway (:mod:`repro.serve.gateway`), the process's
#: one HTTP surface: query and ops routes alike.  Ordered
#: most-specific-first;
#: :func:`http_status` walks it with ``isinstance`` so a subclass added
#: later inherits its parent's status instead of silently falling
#: through to 500.  Partial degraded answers are not errors and are
#: mapped by the gateway itself (HTTP 206).
HTTP_STATUS: tuple[tuple[type, int], ...] = (
    (Overloaded, 429),           # shed: admission gate or quota; retryable
    (DeadlineExceeded, 504),     # the query missed its budget
    (ShardError, 502),           # a backend shard failed (fail-fast mode)
    (ProtocolError, 400),        # malformed request
    (DocumentNotFoundError, 404),
    (XPathSyntaxError, 400),     # the client's query doesn't parse
    (UnsupportedQueryError, 400),
    (PlanLintError, 400),
    (XmlSyntaxError, 400),       # malformed document payload
    (ReadOnlyDatabaseError, 403),
    (TransientStorageError, 503),  # safe to retry
    (ServingError, 503),
    (XmlRelError, 500),
)


def http_status(error: BaseException) -> int:
    """The HTTP status code for *error*, per :data:`HTTP_STATUS`.

    Unknown exception types (anything outside the library hierarchy)
    map to 500.
    """
    for exc_type, status in HTTP_STATUS:
        if isinstance(error, exc_type):
            return status
    return 500


def error_payload(error: BaseException) -> dict:
    """A machine-readable JSON body for *error*.

    Always carries ``error`` (the exception class name), ``message``,
    and ``status``; typed serving errors contribute their structured
    fields (``in_flight``/``limit``, ``deadline_seconds``/``elapsed``,
    ``shard``) so clients can act on more than prose.
    """
    payload: dict = {
        "error": type(error).__name__,
        "message": str(error),
        "status": http_status(error),
    }
    if isinstance(error, Overloaded):
        payload["in_flight"] = error.in_flight
        payload["limit"] = error.limit
    elif isinstance(error, DeadlineExceeded):
        payload["deadline_seconds"] = error.deadline_seconds
        payload["elapsed_seconds"] = error.elapsed
    elif isinstance(error, ShardError):
        payload["shard"] = error.shard
    elif isinstance(error, DocumentNotFoundError):
        payload["doc_id"] = error.doc_id
    return payload
