"""Hierarchical tracing for the store/translate/execute pipeline.

A :class:`Tracer` records a tree of :class:`Span` objects — one per
pipeline phase (``store`` → ``stream_shred``/``analyze``, ``query`` →
``translate``/``execute``/``reconstruct``) down to individual SQL
statements (``sql.statement`` spans emitted by
:class:`~repro.relational.database.Database`).  Spans carry monotonic
timings (:func:`time.perf_counter`), arbitrary attributes, and
parent/child nesting; point events (no duration) share the same record
stream.

Everything is in-process and zero-dependency: the tracer is a plain
object handed to :meth:`repro.XmlRelStore.open` (``tracer=``) and
threaded down through the :class:`~repro.relational.database.Database`.
A *disabled* tracer (``Tracer(enabled=False)``, or the module-level
:data:`NULL_TRACER` default) records nothing and keeps no per-call
state, so the instrumented hot paths cost one attribute check when
tracing is off.

The tracer is thread-safe in a lock-free-per-thread way: every thread
gets its *own* span stack (so nesting is always within one thread and
never interleaves across threads).  The shared state is nearly
lock-free too — span/request ids come from atomic counters, and
:attr:`Tracer.roots`/:attr:`Tracer.finished` are plain lists whose
appends are atomic under the interpreter lock.  The tracer's one lock
is taken only where threads genuinely meet: attaching a child to a
parent span owned by *another* thread (an adopted request root) and
appending point events.

**Cross-thread propagation.**  A span started on a bare worker thread
has no parent there, so it would become its own root — orphaned from
the request that submitted the work.  The serving layer instead
*captures* the request's span into a :class:`RequestContext`
(:meth:`Tracer.capture`) and each worker *adopts* it
(:meth:`Tracer.adopt`): the captured span is pushed onto the worker's
stack as a borrowed frame, so everything the worker records nests under
the request's root — one coherent tree across the whole scatter
fan-out.  Borrowed frames are never closed by the borrowing thread;
only the owner ends them.  Root spans that *do* start on a foreign
thread without adoption are tagged ``detached=true``, so broken
propagation shows up in every export instead of silently flattening the
tree.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass

from repro.obs.metrics import MetricsRegistry


class Span:
    """One timed phase: a named interval with attributes and children.

    A hand-rolled ``__slots__`` class rather than a dataclass: the
    serving layer opens several spans per request, and the dataclass
    keyword-processing ``__init__`` costs ~4x a plain positional one on
    the warm-query path.
    """

    __slots__ = (
        "name", "span_id", "parent_id", "start", "end", "attributes",
        "children", "depth", "thread_id",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: int | None,
        start: float,
        end: float | None = None,
        attributes: dict | None = None,
        children: list["Span"] | None = None,
        depth: int = 0,
        thread_id: int = 0,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end = end
        self.attributes = {} if attributes is None else attributes
        self.children = [] if children is None else children
        #: Nesting depth: 0 for a root span.
        self.depth = depth
        #: ``threading.get_ident()`` of the thread that started the
        #: span (0 for spans created outside a tracer, e.g. in tests).
        self.thread_id = thread_id

    def __repr__(self) -> str:
        return (
            f"Span(name={self.name!r}, span_id={self.span_id}, "
            f"parent_id={self.parent_id}, depth={self.depth}, "
            f"attributes={self.attributes!r})"
        )

    @property
    def duration(self) -> float:
        """Elapsed seconds (0.0 while the span is still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def finished(self) -> bool:
        return self.end is not None

    def set(self, **attributes) -> "Span":
        """Attach attributes; chainable."""
        self.attributes.update(attributes)
        return self

    def walk(self):
        """Yield this span and every descendant, depth-first pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()


class _NullSpan:
    """The span handed out by a disabled tracer: accepts the full Span
    surface, records nothing, and is shared (no per-call allocation)."""

    __slots__ = ()

    name = ""
    span_id = -1
    parent_id = None
    start = 0.0
    end = 0.0
    depth = 0
    duration = 0.0
    finished = True

    @property
    def attributes(self) -> dict:
        return {}

    @property
    def children(self) -> list:
        return []

    def set(self, **attributes) -> "_NullSpan":
        return self

    def walk(self):
        return iter(())

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def __bool__(self) -> bool:
        # Lets instrumentation write `if span:` to guard enabled-only work.
        return False


NULL_SPAN = _NullSpan()


@dataclass(frozen=True)
class RequestContext:
    """A capturable handle to one request's trace position.

    Produced by :meth:`Tracer.capture` on the submitting thread and
    handed (by value) to worker threads, which enter
    :meth:`Tracer.adopt` with it so their spans nest under
    :attr:`span`.  ``span`` is ``None`` when the tracer is disabled or
    nothing was open — adoption is then a no-op, keeping the
    disabled-tracer hot path free.
    """

    request_id: str
    span: "Span | None" = None


class _Adoption:
    """Context manager that borrows a foreign span onto this thread's
    stack (see :meth:`Tracer.adopt`)."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: "Span | None") -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> "Span | None":
        span = self._span
        if span is None:
            return None
        tracer = self._tracer
        stack = tracer._stack
        if stack and stack[-1] is span:
            # Already adopted (or running inline on the owner thread
            # with the span on top): nothing to borrow.
            self._span = None
            return span
        stack.append(span)
        tracer._borrowed.add(id(span))
        return span

    def __exit__(self, exc_type, exc, tb) -> None:
        span = self._span
        if span is None:
            return None
        tracer = self._tracer
        stack = tracer._stack
        # Close anything the worker left open above the borrowed frame,
        # then drop the frame itself — never ending the borrowed span
        # (its owner does that).
        while stack and stack[-1] is not span:
            tracer.end_span(stack[-1])
        if stack and stack[-1] is span:
            stack.pop()
        tracer._borrowed.discard(id(span))
        return None


class _SpanContext:
    """Context manager pairing ``start_span``/``end_span``."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None and "error" not in self._span.attributes:
            self._span.attributes["error"] = f"{type(exc).__name__}: {exc}"
        self._tracer.end_span(self._span)
        return None


class Tracer:
    """Collects spans and point events for one pipeline/session.

    Use :meth:`span` as a context manager for well-scoped phases, or the
    explicit :meth:`start_span`/:meth:`end_span` pair where the interval
    does not map onto a ``with`` block.  Finished spans are kept both as
    a tree (:attr:`roots`) and in completion order (:attr:`finished`);
    the exporters in :mod:`repro.obs.export` consume either.
    """

    def __init__(
        self,
        enabled: bool = True,
        slow_query_threshold: float | None = None,
        max_sql_length: int = 2000,
    ) -> None:
        #: Master switch; a disabled tracer records nothing.
        self.enabled = enabled
        #: Statements slower than this (seconds) get their
        #: ``EXPLAIN QUERY PLAN`` captured into the statement span.
        #: ``None`` disables plan capture; ``0.0`` captures every plan.
        self.slow_query_threshold = slow_query_threshold
        #: SQL text longer than this is truncated in span attributes.
        self.max_sql_length = max_sql_length
        #: Metrics accumulated alongside the spans.
        self.metrics = MetricsRegistry()
        #: Completed root spans, in start order.
        self.roots: list[Span] = []
        #: All completed spans, in completion order.
        self.finished: list[Span] = []
        #: Point events (dicts with ``name``/``ts``/attributes).
        self.events: list[dict] = []
        #: Guards cross-thread child attachment and the event list; the
        #: per-thread span stacks need no locking, and the id counters
        #: are atomic (``itertools.count`` increments in C).
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = itertools.count(1)
        self._next_request = itertools.count(1)
        #: The thread that built the tracer — roots started elsewhere
        #: without adoption are tagged ``detached=true``.
        self._home_thread = threading.get_ident()
        self._epoch = time.perf_counter()

    @property
    def _stack(self) -> list[Span]:
        """This thread's open-span stack (created on first use)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def _borrowed(self) -> set[int]:
        """ids of spans this thread borrowed via :meth:`adopt` — frames
        :meth:`end_span` must never pop or close."""
        borrowed = getattr(self._local, "borrowed", None)
        if borrowed is None:
            borrowed = self._local.borrowed = set()
        return borrowed

    # -- cross-thread propagation ---------------------------------------------------

    def capture(
        self, span: Span | None = None, request_id: str | None = None
    ) -> RequestContext:
        """Freeze the current trace position into a :class:`RequestContext`.

        *span* anchors the context (default: this thread's innermost
        open span).  A fresh ``req-NNNNNN`` id is minted when none is
        given — ids are stable for the request's lifetime and stamped
        onto every wide event and exported span tree.
        """
        if request_id is None:
            request_id = f"req-{next(self._next_request):06d}"
        if not self.enabled:
            return RequestContext(request_id=request_id, span=None)
        anchor = span if isinstance(span, Span) else self.current_span
        return RequestContext(request_id=request_id, span=anchor)

    def adopt(self, context: RequestContext | None) -> _Adoption:
        """Continue *context*'s trace on this thread.

        .. code-block:: python

            ctx = tracer.capture()          # submitting thread
            ...
            with tracer.adopt(ctx):         # worker thread
                with tracer.span("serve.shard", shard=n):
                    ...

        The captured span is pushed as a *borrowed* frame: spans the
        worker starts nest under it, but :meth:`end_span` never closes
        it from here — the owner thread ends it.  No-op when the tracer
        is disabled or the context carries no span.
        """
        if not self.enabled or context is None:
            return _Adoption(self, None)
        return _Adoption(self, context.span)

    # -- span lifecycle -----------------------------------------------------------

    def start_span(self, name: str, **attributes) -> Span:
        """Open a span nested under the current one (explicit form).

        The parent may be a borrowed frame from :meth:`adopt` — depth
        continues from the parent's, not from this thread's stack size.
        A parentless span on a thread other than the tracer's home
        thread is tagged ``detached=true``: it means cross-thread work
        started without adopting its request context, and the tag makes
        that visible in every export instead of silently flattening the
        trace into disconnected roots.
        """
        if not self.enabled:
            return NULL_SPAN  # type: ignore[return-value]
        stack = self._stack
        parent = stack[-1] if stack else None
        thread_id = threading.get_ident()
        # *attributes* is this call's own kwargs dict — safe to own.
        if parent is not None:
            parent_id = parent.span_id
            depth = parent.depth + 1
        else:
            parent_id = None
            depth = 0
            if thread_id != self._home_thread:
                attributes.setdefault("detached", True)
        span = Span(
            name,
            next(self._next_id),
            parent_id,
            time.perf_counter(),
            None,
            attributes,
            None,
            depth,
            thread_id,
        )
        stack.append(span)
        return span

    def end_span(self, span: Span) -> None:
        """Close *span* (and any unclosed children left on the stack).

        Borrowed frames (pushed by :meth:`adopt`) are a hard floor: the
        pop loop never closes them, so a worker double-ending spans can
        never close its request's root out from under the owner.
        """
        if not self.enabled or span is NULL_SPAN:
            return
        stack = self._stack
        borrowed = self._borrowed
        thread_id = threading.get_ident()
        while stack:
            top = stack[-1]
            if id(top) in borrowed:
                break
            stack.pop()
            top.end = time.perf_counter()
            parent = stack[-1] if stack else None
            if parent is None:
                # roots/finished are plain lists — append is atomic
                # under the interpreter lock, and readers only iterate.
                self.roots.append(top)
            elif parent.thread_id != thread_id:
                # The parent is a span borrowed from another thread
                # (adopted request root): the owner or a sibling worker
                # may be attaching to it concurrently, so serialize.
                with self._lock:
                    parent.children.append(top)
            else:
                # Same-thread parent: nobody else can reach it yet.
                parent.children.append(top)
            self.finished.append(top)
            if top is span:
                return
        # span was not on the stack (double end, or it sits below a
        # borrowed frame): record it standalone.
        if span.end is None:
            span.end = time.perf_counter()

    def span(self, name: str, **attributes):
        """Context manager form of :meth:`start_span`/:meth:`end_span`.

        .. code-block:: python

            with tracer.span("store", scheme="interval") as span:
                ...
                span.set(rows=result.total_rows)
        """
        if not self.enabled:
            return NULL_SPAN
        return _SpanContext(self, self.start_span(name, **attributes))

    # -- point events -------------------------------------------------------------

    def event(self, name: str, **attributes) -> None:
        """Record an instantaneous event under the current span."""
        if not self.enabled:
            return
        stack = self._stack
        parent = stack[-1] if stack else None
        record = {
            "name": name,
            "ts": time.perf_counter() - self._epoch,
            "parent_id": parent.span_id if parent else None,
            **attributes,
        }
        with self._lock:
            self.events.append(record)

    # -- helpers -------------------------------------------------------------------

    def clip_sql(self, sql: str) -> str:
        """Truncate statement text for span attributes."""
        if len(sql) <= self.max_sql_length:
            return sql
        return sql[: self.max_sql_length] + f"... [{len(sql)} chars]"

    def relative(self, t: float) -> float:
        """Convert a perf_counter reading to seconds since tracer start."""
        return t - self._epoch

    @property
    def current_span(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def max_depth(self) -> int:
        """Deepest nesting level across finished spans (root = 1)."""
        return max((s.depth + 1 for s in self.finished), default=0)

    def spans_named(self, name: str) -> list[Span]:
        """All finished spans called *name*, in completion order."""
        return [s for s in self.finished if s.name == name]

    def reset(self) -> None:
        """Drop all recorded spans, events, and metrics.

        Only the calling thread's open-span stack is cleared; other
        threads' stacks drain naturally as their spans end.
        """
        with self._lock:
            self.roots.clear()
            self.finished.clear()
            self.events.clear()
        self._stack.clear()
        self.metrics = MetricsRegistry()
        self._epoch = time.perf_counter()


#: Shared disabled tracer — the default for every Database/XmlRelStore.
NULL_TRACER = Tracer(enabled=False)
