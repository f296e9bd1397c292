"""``xmlrel-concurrency`` — the static lock-discipline analyzer.

The serving stack's thread-safety rests on a handful of conventions:
one declared lock order, per-shard single-writer locks, and "never
block while holding a small lock".  Until this module those conventions
lived in prose comments; this analyzer turns them into a machine-checked
gate (run as ``python -m repro.analysis.concurrency``).

The canonical lock order
------------------------

:data:`LOCK_ORDER` is the single source of truth for lock ranking —
every prose "Lock order:" comment in the tree refers here.  Locks are
grouped into *classes*; a thread may only acquire a lock of **equal or
higher rank** than every lock it already holds:

``shard`` (rank 0, outermost)
    The per-shard single-writer locks
    (:class:`~repro.serve.sharded.ShardedStore` ``_shard_locks``).
    Multiple shard locks are taken in ascending shard-index order
    (``rebalance`` sorts its pair; ``recover`` ascends).  Coarse by
    design: whole write transactions run under them, so blocking on
    SQL or a connection acquire underneath is expected.
``map`` (rank 1)
    The catalog locks of :mod:`repro.relational.shardmap`: the one
    ``catalog_lock`` its map and journal share (every
    method running catalog SQL takes it itself, so SQL underneath is
    part of the contract; anything else blocking is not) and the
    in-memory mirrors' ``_lock``, taken inside it or alone.
``pool`` (rank 2)
    Connection-pool and plan-cache bookkeeping locks.  Held for a few
    counter updates only — nothing may block under them.
``metrics`` (rank 3, innermost)
    Observability locks (metrics registry, windows, tracer, request
    log, fault policy).  Innermost so any code, even code already
    holding every other lock, can record telemetry.

:data:`LOCK_SITES` maps the modules allowed to *construct* locks to the
attributes they own and their classes; ``xmlrel-lint`` rule L005 keeps
the map complete by refusing raw ``threading.Lock()`` construction in
unlisted modules.

Rule catalog
------------

C001 (error)
    Lock-order inversion: acquiring a lock ranked *lower* than one
    already held, directly or through a same-class method call chain.
C002 (error)
    Blocking call under a lock whose class does not allow that kind of
    blocking: queue ``get``/``put`` without a timeout, a pool or
    connection acquire, ``execute*``/``transaction``, ``time.sleep``
    (and retry backoff), or a thread ``join``.
C003 (warning)
    An attribute written with no lock held, while the same attribute is
    accessed under a lock elsewhere in the class — the usual shape of a
    forgotten guard.
C004 (warning)
    ``threading.Thread(...)`` without explicit ``name=`` and ``daemon=``
    keywords — anonymous threads make production hangs undebuggable.
C005 (error)
    Double-acquire of a non-reentrant lock along any static same-class
    call path — a guaranteed self-deadlock.
C006 (error)
    A C002-kind blocking call on the event loop: inside an ``async
    def``, or inside a sync method (or nested/module-level function)
    reachable from one through same-class calls.  One stalled coroutine
    stalls every connection.  Exempt: a call that is itself awaited,
    and anything passed to ``run_in_executor`` / ``asyncio.to_thread``
    — the two ways work leaves the loop.

False positives are suppressed in place with ``# lint: allow(C00x)`` on
the offending line or on a comment line directly above it.  The CI gate
runs ``--strict``, which fails on any unsuppressed finding regardless
of severity; without ``--strict`` only error-severity findings fail.

What the analyzer can and cannot see
------------------------------------

The model is per-class and syntactic: it tracks ``self.<attr>`` locks
— built in the class, or a registered attribute assigned from a name
(a lock handed in, such as the shard catalog's) — through ``with``
blocks, explicit ``acquire()``/``release()`` pairs (including loops
over lock lists), and same-class ``self.method()`` call chains.  Calls that cross object boundaries (``self.pool.foo()``)
are opaque — the runtime harness in
:mod:`repro.analysis.lockharness` covers those by watching real
acquisitions under the test suites.
"""

from __future__ import annotations

import ast
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.diagnostics import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Diagnostic,
    collect_pragmas,
    format_diagnostics,
    has_errors,
    is_suppressed,
)


@dataclass(frozen=True)
class LockClass:
    """One rank in the canonical lock order.

    ``blocking_ok`` lists the :ref:`blocking kinds <C002>` permitted
    while a lock of this class is held (e.g. the shard locks serialize
    whole write transactions, so SQL underneath is the design, not a
    bug).
    """

    name: str
    rank: int
    blocking_ok: tuple[str, ...] = ()


#: The canonical lock order: outermost first.  Acquire left-to-right
#: only.  Referenced by every "Lock order:" comment in the tree.
LOCK_ORDER: tuple[LockClass, ...] = (
    # "join": store_corpus waits for its bulk-session close threads —
    # that shard's own SQL — with the shard locks held.
    LockClass("shard", 0, blocking_ok=("execute", "acquire", "join")),
    LockClass("map", 1, blocking_ok=("execute",)),
    LockClass("pool", 2),
    LockClass("metrics", 3),
)

LOCK_CLASSES: dict[str, LockClass] = {c.name: c for c in LOCK_ORDER}

#: Modules allowed to construct locks (``xmlrel-lint`` L005), mapped to
#: ``{attribute name: lock class}`` — the whole-tree lock model.  Paths
#: are ``/``-separated suffixes relative to the package root, like
#: :data:`repro.analysis.lint.SQL_ALLOWED`.
LOCK_SITES: dict[str, dict[str, str]] = {
    "repro/serve/sharded.py": {"_shard_locks": "shard"},
    # ConnectionPool._lock and ResultCache._lock (one name, one class).
    "repro/serve/pool.py": {"_lock": "pool"},
    "repro/serve/executor.py": {"_gate": "pool"},
    "repro/serve/gateway.py": {"_lock": "pool"},
    "repro/relational/plancache.py": {"_lock": "pool"},
    # The mirrors' _lock; catalog_lock is built once by open_catalog
    # and handed to the two classes that share the connection.
    "repro/relational/shardmap.py": {"_lock": "map", "catalog_lock": "map"},
    "repro/obs/metrics.py": {"_lock": "metrics"},
    "repro/obs/window.py": {"_lock": "metrics"},
    "repro/obs/trace.py": {"_lock": "metrics"},
    "repro/obs/events.py": {"_lock": "metrics", "_drained": "metrics"},
    "repro/reliability/faults.py": {"_lock": "metrics"},
}

#: Lock-constructor names -> model kind.  ``rlock`` is reentrant (no
#: C005); ``semaphore`` is a counted capacity gate, not a critical
#: section, so holding one never triggers C001/C002/C005.
_LOCK_CTORS = {
    "Lock": "lock",
    "RLock": "rlock",
    "Semaphore": "semaphore",
    "BoundedSemaphore": "semaphore",
    "Condition": "condition",
}

_QUEUE_CTORS = frozenset(
    {"Queue", "LifoQueue", "PriorityQueue", "SimpleQueue"}
)

#: Method names that count as SQL execution for C002.
_EXECUTE_NAMES = frozenset(
    {"query", "query_one", "commit", "transaction", "executemany",
     "executescript"}
)

#: Receivers whose ``get``/``put`` look like queue waits (C002).
_QUEUE_HINT = re.compile(r"queue|_idle|_pending", re.IGNORECASE)

#: Receivers whose argument-less ``join`` looks like a thread join.
_THREAD_HINT = re.compile(r"thread|worker|writer", re.IGNORECASE)

_INIT_METHODS = frozenset(
    {"__init__", "__post_init__", "__new__", "__init_subclass__"}
)

_MUTEX_KINDS = frozenset({"lock", "rlock", "condition"})

#: Calls whose arguments run off the event loop (C006).
_OFFLOADERS = frozenset({"run_in_executor", "to_thread"})


def _relative(path: Path, root: Path) -> str:
    try:
        return path.relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()


def sites_for(rel_path: str, sites: dict[str, dict[str, str]]) -> dict:
    """The registered ``{attr: lock class}`` map for one file path
    (suffix-matched, like the lint allow-lists)."""
    for suffix, attrs in sites.items():
        if rel_path == suffix or rel_path.endswith("/" + suffix):
            return attrs
    return {}


def _terminal_name(node: ast.AST) -> str:
    """The last identifier of a dotted/subscripted expression —
    ``self.pools[shard]`` -> ``pools`` — used for receiver heuristics."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):
        return _terminal_name(node.value)
    if isinstance(node, ast.Call):
        return _terminal_name(node.func)
    return ""


def _ctor_name(func: ast.AST) -> str:
    """``threading.Lock`` / bare ``Lock`` -> ``"Lock"`` (else "")."""
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _lock_ctor_kind(node: ast.AST) -> str | None:
    """The lock kind a value expression constructs, if any (handles
    list comprehensions of locks and dataclass ``default_factory``)."""
    if isinstance(node, ast.Call):
        name = _ctor_name(node.func)
        if name in _LOCK_CTORS:
            return _LOCK_CTORS[name]
        if name == "field":
            for kw in node.keywords:
                if kw.arg == "default_factory":
                    factory = _ctor_name(kw.value)
                    if factory in _LOCK_CTORS:
                        return _LOCK_CTORS[factory]
    if isinstance(node, ast.ListComp):
        inner = _lock_ctor_kind(node.elt)
        if inner:
            return inner + "_list"
    if isinstance(node, ast.List) and node.elts:
        kinds = [_lock_ctor_kind(elt) for elt in node.elts]
        if all(kinds):
            return kinds[0] + "_list"
    return None


def _queue_ctor(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call) and _ctor_name(node.func) in _QUEUE_CTORS
    )


@dataclass(frozen=True)
class LockInfo:
    """One lock attribute of one class, as the model sees it."""

    attr: str
    kind: str  # lock | rlock | semaphore | condition (+ "_list")
    lock_class: str | None  # registry class name (None: unregistered)
    rank: int | None
    line: int

    @property
    def base_kind(self) -> str:
        return self.kind.removesuffix("_list")


@dataclass(eq=False)
class _HeldTok:
    """A lock believed held at the current program point."""

    attr: str
    key: str  # subscript text, "" for scalars, "*" for loop-acquired
    rank: int | None
    lock_class: str | None
    kind: str
    line: int

    @property
    def label(self) -> str:
        return f"self.{self.attr}[{self.key}]" if self.key else f"self.{self.attr}"


@dataclass
class _MethodSummary:
    label: str
    acquires: list[tuple[str, str, str, int]] = field(default_factory=list)
    calls: list[tuple[str, tuple[_HeldTok, ...], int]] = field(
        default_factory=list
    )
    writes: list[tuple[str, int, bool]] = field(default_factory=list)
    guarded_access: set[str] = field(default_factory=set)
    # C006: is it a coroutine, what blocks in it, whom it calls in-line.
    is_async: bool = False
    blocking: list[tuple[str, str, int]] = field(default_factory=list)
    inline_calls: list[tuple[str, ...]] = field(default_factory=list)


@dataclass
class _RawFinding:
    code: str
    severity: str
    message: str
    line: int


def _blocking_kind(
    call: ast.Call, queue_attrs: set[str]
) -> tuple[str, str] | None:
    """Classify *call* as a blocking kind for C002, or None.

    Kinds: ``queue`` (get/put without timeout), ``acquire`` (pool or
    connection checkout), ``execute`` (SQL), ``sleep``, ``join``.
    """
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    name = func.attr
    recv = _terminal_name(func.value)
    desc = ast.unparse(func)
    has_timeout = any(kw.arg == "timeout" for kw in call.keywords)
    if name == "sleep" and recv == "time":
        return "sleep", desc
    if name == "backoff":
        return "sleep", desc
    if name.startswith("execute") or name in _EXECUTE_NAMES:
        return "execute", desc
    looks_queue = bool(_QUEUE_HINT.search(recv)) or (
        isinstance(func.value, ast.Attribute)
        and isinstance(func.value.value, ast.Name)
        and func.value.value.id == "self"
        and func.value.attr in queue_attrs
    )
    if looks_queue and not has_timeout:
        if name == "get" and not call.args:
            return "queue", desc
        if name == "put":
            return "queue", desc
    if name in ("acquire", "connection"):
        return "acquire", desc
    if (
        name == "join"
        and not call.args
        and not call.keywords
        and _THREAD_HINT.search(recv)
    ):
        return "join", desc
    return None


class _MethodWalker:
    """Walks one method body tracking the statically-held lock set."""

    def __init__(
        self,
        model: "_ClassAnalyzer",
        label: str,
    ) -> None:
        self.model = model
        self.summary = _MethodSummary(label)
        self.nested: list[tuple[str, ast.FunctionDef]] = []
        self._held: list[_HeldTok] = []
        self._loop_locks: dict[str, tuple[str, str]] = {}
        self._offloaded = 0  # depth inside run_in_executor/to_thread args

    def walk(self, fn: ast.FunctionDef) -> _MethodSummary:
        self.summary.is_async = isinstance(fn, ast.AsyncFunctionDef)
        self._block(fn.body)
        return self.summary

    # -- lock references ---------------------------------------------------------

    def _lock_ref(self, expr: ast.AST) -> tuple[str, str] | None:
        """``(attr, subscript key)`` when *expr* names a model lock."""
        locks = self.model.locks
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and expr.attr in locks
            and not locks[expr.attr].kind.endswith("_list")
        ):
            return expr.attr, ""
        if isinstance(expr, ast.Subscript):
            base = expr.value
            if (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "self"
                and base.attr in locks
                and locks[base.attr].kind.endswith("_list")
            ):
                return base.attr, ast.unparse(expr.slice)
        if isinstance(expr, ast.Name) and expr.id in self._loop_locks:
            return self._loop_locks[expr.id]
        return None

    def _iter_lock_list(self, iter_expr: ast.AST) -> str | None:
        """The lock-list attr a ``for`` iterates, unwrapping
        ``reversed``/``sorted``/``enumerate``/``list``/``tuple``."""
        node = iter_expr
        while (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("reversed", "sorted", "enumerate", "list",
                                 "tuple")
            and node.args
        ):
            node = node.args[0]
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr in self.model.locks
            and self.model.locks[node.attr].kind.endswith("_list")
        ):
            return node.attr
        return None

    # -- acquisition bookkeeping --------------------------------------------------

    def _acquire(self, ref: tuple[str, str], line: int) -> _HeldTok | None:
        attr, key = ref
        info = self.model.locks[attr]
        if info.base_kind == "semaphore":
            self.summary.acquires.append((attr, key, info.base_kind, line))
            return None
        if info.base_kind != "rlock":
            for tok in self._held:
                if tok.attr == attr and tok.key == key:
                    self.model.add(
                        "C005",
                        SEVERITY_ERROR,
                        f"double acquire of non-reentrant lock "
                        f"{tok.label} (already held since line "
                        f"{tok.line}) — guaranteed self-deadlock",
                        line,
                    )
                    break
        ranked = [t for t in self._held if t.rank is not None]
        if info.rank is not None and ranked:
            worst = max(ranked, key=lambda t: t.rank)
            if info.rank < worst.rank:
                order = " -> ".join(c.name for c in self.model.order)
                self.model.add(
                    "C001",
                    SEVERITY_ERROR,
                    f"lock-order inversion: acquiring self.{attr} "
                    f"(class {info.lock_class!r}, rank {info.rank}) while "
                    f"holding {worst.label} (class {worst.lock_class!r}, "
                    f"rank {worst.rank}); declared order is {order}",
                    line,
                )
        token = _HeldTok(
            attr, key, info.rank, info.lock_class, info.base_kind, line
        )
        self._held.append(token)
        self.summary.acquires.append((attr, key, info.base_kind, line))
        return token

    def _release(self, ref: tuple[str, str]) -> None:
        attr, key = ref
        for tok in reversed(self._held):
            if tok.attr == attr and tok.key == key:
                self._held.remove(tok)
                return

    def _access(self, attr: str) -> None:
        if self._held:
            self.summary.guarded_access.add(attr)

    # -- statements ---------------------------------------------------------------

    def _block(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            pushed: list[_HeldTok] = []
            for item in stmt.items:
                ref = self._lock_ref(item.context_expr)
                if ref is not None:
                    token = self._acquire(ref, item.context_expr.lineno)
                    if token is not None:
                        pushed.append(token)
                else:
                    self._expr(item.context_expr)
            self._block(stmt.body)
            for token in pushed:
                if token in self._held:
                    self._held.remove(token)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._expr(stmt.iter)
            bound: str | None = None
            lock_attr = self._iter_lock_list(stmt.iter)
            if lock_attr is not None:
                target = stmt.target
                if isinstance(target, ast.Tuple) and target.elts:
                    target = target.elts[-1]  # enumerate: (i, lock)
                if isinstance(target, ast.Name):
                    bound = target.id
                    self._loop_locks[bound] = (lock_attr, "*")
            self._block(stmt.body)
            self._block(stmt.orelse)
            if bound is not None:
                self._loop_locks.pop(bound, None)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._expr(stmt.test)
            self._block(stmt.body)
            self._block(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            self._block(stmt.body)
            for handler in stmt.handlers:
                self._block(handler.body)
            self._block(stmt.orelse)
            self._block(stmt.finalbody)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested functions run on their own frame (often their own
            # thread) — analyzed as pseudo-methods with an empty held
            # set by the class driver.
            self.nested.append(
                (f"{self.summary.label}.{stmt.name}", stmt)
            )
        elif isinstance(stmt, ast.ClassDef):
            pass
        elif isinstance(stmt, ast.Assign):
            self._expr(stmt.value)
            for target in stmt.targets:
                self._target(target)
        elif isinstance(stmt, ast.AugAssign):
            self._expr(stmt.value)
            self._target(stmt.target, augmented=True)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._expr(stmt.value)
            self._target(stmt.target)
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._expr(child)
                elif isinstance(child, ast.stmt):
                    self._stmt(child)

    def _target(self, target: ast.AST, augmented: bool = False) -> None:
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            held = bool(self._held)
            self.summary.writes.append((target.attr, target.lineno, held))
            if held:
                self.summary.guarded_access.add(target.attr)
            if augmented:
                self._access(target.attr)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._target(elt, augmented=augmented)
        elif isinstance(target, ast.Subscript):
            self._expr(target.value)
            self._expr(target.slice)

    # -- expressions --------------------------------------------------------------

    def _expr(self, node: ast.AST | None) -> None:
        if node is None or isinstance(node, ast.Lambda):
            return
        if isinstance(node, ast.Await) and isinstance(node.value, ast.Call):
            self._call(node.value, awaited=True)
            return
        if isinstance(node, ast.Call):
            self._call(node)
            return
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                self._access(node.attr)
            self._expr(node.value)
            return
        for child in ast.iter_child_nodes(node):
            self._expr(child)

    def _call(self, node: ast.Call, awaited: bool = False) -> None:
        func = node.func
        # Explicit lock acquire/release toggles.
        if isinstance(func, ast.Attribute) and func.attr in (
            "acquire", "release"
        ):
            ref = self._lock_ref(func.value)
            if ref is not None:
                if func.attr == "acquire":
                    self._acquire(ref, node.lineno)
                else:
                    self._release(ref)
                return
        # Same-class call: recorded for the cross-method pass.
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
        ):
            self.summary.calls.append(
                (func.attr, tuple(self._held), node.lineno)
            )
            if not self._offloaded:
                self.summary.inline_calls.append((func.attr,))
        elif isinstance(func, ast.Name) and not self._offloaded:
            # A nested function of this method, or a module-level one.
            self.summary.inline_calls.append(
                (f"{self.summary.label}.{func.id}", func.id)
            )
        classified = (
            None if awaited
            else _blocking_kind(node, self.model.queue_attrs)
        )
        if classified is not None:
            kind, desc = classified
            if not self._offloaded:
                self.summary.blocking.append((kind, desc, node.lineno))
            # C002: blocking call while holding a lock that forbids it.
            for tok in self._held:
                allowed = (
                    LOCK_CLASSES[tok.lock_class].blocking_ok
                    if tok.lock_class in LOCK_CLASSES
                    else ()
                )
                if kind not in allowed:
                    self.model.add(
                        "C002",
                        SEVERITY_ERROR,
                        f"{tok.label} (class {tok.lock_class!r}) held "
                        f"across blocking {kind} call {desc}(...) — "
                        "release the lock first or declare the "
                        "blocking kind in LOCK_ORDER",
                        node.lineno,
                    )
                    break
        self._expr(func.value if isinstance(func, ast.Attribute) else func)
        offloads = isinstance(func, ast.Attribute) and func.attr in _OFFLOADERS
        self._offloaded += offloads
        for arg in node.args:
            self._expr(arg)
        for kw in node.keywords:
            self._expr(kw.value)
        self._offloaded -= offloads


class _ClassAnalyzer:
    """The per-class lock model plus the C001/C002/C003/C005/C006
    checks.  A module's top-level functions are analyzed as one more
    "class" (no locks, no ``self``), so C006 sees them too."""

    def __init__(
        self,
        rel_path: str,
        node: ast.ClassDef,
        site_attrs: dict[str, str],
        order: tuple[LockClass, ...],
        out: list[_RawFinding],
    ) -> None:
        self.rel_path = rel_path
        self.node = node
        self.order = order
        self.classes = {c.name: c for c in order}
        self.out = out
        self.locks: dict[str, LockInfo] = {}
        self.queue_attrs: set[str] = set()
        self.summaries: dict[str, _MethodSummary] = {}
        self._collect_model(site_attrs)

    def add(self, code: str, severity: str, message: str, line: int) -> None:
        self.out.append(
            _RawFinding(code, severity, f"{self.node.name}: {message}", line)
        )

    # -- model --------------------------------------------------------------------

    def _collect_model(self, site_attrs: dict[str, str]) -> None:
        for sub in ast.walk(self.node):
            attr: str | None = None
            value: ast.AST | None = None
            line = 0
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                target = sub.targets[0]
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    attr, value, line = target.attr, sub.value, sub.lineno
                elif isinstance(target, ast.Name):
                    attr, value, line = target.id, sub.value, sub.lineno
            elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
                if isinstance(sub.target, ast.Name):
                    attr, value, line = sub.target.id, sub.value, sub.lineno
                elif (
                    isinstance(sub.target, ast.Attribute)
                    and isinstance(sub.target.value, ast.Name)
                    and sub.target.value.id == "self"
                ):
                    attr, value, line = (
                        sub.target.attr, sub.value, sub.lineno
                    )
            if attr is None or value is None:
                continue
            kind = _lock_ctor_kind(value)
            if kind is None and attr in site_attrs and isinstance(
                value, ast.Name
            ):
                # A registered lock handed in by name (a constructor
                # parameter): one lock several classes share, modeled
                # as the plain Lock that registered site builds.
                kind = "lock"
            if kind is not None and attr not in self.locks:
                lock_class = site_attrs.get(attr)
                info = LockInfo(
                    attr,
                    kind,
                    lock_class,
                    self.classes[lock_class].rank
                    if lock_class in self.classes
                    else None,
                    line,
                )
                self.locks[attr] = info
            elif _queue_ctor(value):
                self.queue_attrs.add(attr)

    # -- analysis -----------------------------------------------------------------

    def analyze(self) -> None:
        pending: list[tuple[str, ast.FunctionDef]] = [
            (item.name, item)
            for item in self.node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        while pending:
            label, fn = pending.pop(0)
            walker = _MethodWalker(self, label)
            self.summaries[label] = walker.walk(fn)
            pending.extend(walker.nested)
        self._cross_method_pass()
        self._unguarded_write_pass()
        self._event_loop_pass()

    def _cross_method_pass(self) -> None:
        # Transitive acquire sets over the same-class call graph.
        trans: dict[str, set[tuple[str, str, str]]] = {
            label: {
                (attr, key, kind)
                for attr, key, kind, _line in summary.acquires
                if kind != "semaphore"
            }
            for label, summary in self.summaries.items()
        }
        changed = True
        while changed:
            changed = False
            for label, summary in self.summaries.items():
                for callee, _held, _line in summary.calls:
                    extra = trans.get(callee)
                    if extra and not extra <= trans[label]:
                        trans[label] |= extra
                        changed = True
        for summary in self.summaries.values():
            for callee, held, line in summary.calls:
                if callee not in trans or not held:
                    continue
                ranked = [t for t in held if t.rank is not None]
                worst = (
                    max(ranked, key=lambda t: t.rank) if ranked else None
                )
                for attr, key, kind in trans[callee]:
                    info = self.locks.get(attr)
                    if info is None:
                        continue
                    if kind != "rlock" and any(
                        t.attr == attr and t.key == key for t in held
                    ):
                        self.add(
                            "C005",
                            SEVERITY_ERROR,
                            f"call path self.{callee}() re-acquires "
                            f"non-reentrant lock self.{attr} already held "
                            "here — guaranteed self-deadlock",
                            line,
                        )
                    if (
                        worst is not None
                        and info.rank is not None
                        and info.rank < worst.rank
                    ):
                        order = " -> ".join(c.name for c in self.order)
                        self.add(
                            "C001",
                            SEVERITY_ERROR,
                            f"call path self.{callee}() acquires self.{attr} "
                            f"(class {info.lock_class!r}, rank {info.rank}) "
                            f"while {worst.label} (class "
                            f"{worst.lock_class!r}, rank {worst.rank}) is "
                            f"held; declared order is {order}",
                            line,
                        )

    def _unguarded_write_pass(self) -> None:
        guarded: set[str] = set()
        for summary in self.summaries.values():
            guarded |= summary.guarded_access
        skip = set(self.locks) | self.queue_attrs
        for label, summary in self.summaries.items():
            basename = label.rsplit(".", 1)[-1]
            if basename in _INIT_METHODS:
                continue
            for attr, line, held in summary.writes:
                if not held and attr in guarded and attr not in skip:
                    self.add(
                        "C003",
                        SEVERITY_WARNING,
                        f"self.{attr} written here with no lock held, but "
                        "accessed under a lock elsewhere in the class — "
                        "guard the write or suppress if the race is benign",
                        line,
                    )


    def _event_loop_pass(self) -> None:
        """C006: nothing C002 calls blocking may run in a coroutine or
        in what a coroutine calls in-line."""
        origin = {
            label: label
            for label, summary in self.summaries.items() if summary.is_async
        }
        frontier = list(origin)
        while frontier:
            label = frontier.pop()
            for candidates in self.summaries[label].inline_calls:
                for callee in candidates:
                    if callee in self.summaries:
                        if callee not in origin:
                            origin[callee] = origin[label]
                            frontier.append(callee)
                        break
        for label, root in origin.items():
            where = f"async def {root}"
            if label != root:
                where = f"{label}(), reachable from {where}"
            for kind, desc, line in self.summaries[label].blocking:
                self.add(
                    "C006",
                    SEVERITY_ERROR,
                    f"blocking {kind} call {desc}(...) in {where}, runs on "
                    "the event loop — hand it to run_in_executor / "
                    "asyncio.to_thread",
                    line,
                )


def _thread_hygiene_pass(
    rel_path: str, tree: ast.AST, out: list[_RawFinding]
) -> None:
    """C004: every ``threading.Thread(...)`` names itself and pins
    daemon-ness explicitly."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if _ctor_name(node.func) != "Thread":
            continue
        kwargs = {kw.arg for kw in node.keywords}
        missing = [kw for kw in ("name", "daemon") if kw not in kwargs]
        if missing:
            out.append(
                _RawFinding(
                    "C004",
                    SEVERITY_WARNING,
                    "threading.Thread created without explicit "
                    + "/".join(f"{kw}=" for kw in missing)
                    + " — anonymous threads make hangs undebuggable",
                    node.lineno,
                )
            )


def lint_concurrency(
    paths: list[Path],
    root: Path | None = None,
    sites: dict[str, dict[str, str]] | None = None,
    order: tuple[LockClass, ...] | None = None,
) -> tuple[list[Diagnostic], list[Diagnostic], list[dict]]:
    """Analyze every ``.py`` file under *paths*.

    Returns ``(findings, suppressed, locks)`` — unsuppressed and
    pragma-suppressed diagnostics plus the collected lock model (one
    dict per lock attribute).  *sites*/*order* default to the canonical
    registry; tests inject fixture registries.
    """
    sites = LOCK_SITES if sites is None else sites
    order = LOCK_ORDER if order is None else order
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    if root is None:
        root = Path.cwd()
    findings: list[Diagnostic] = []
    suppressed: list[Diagnostic] = []
    locks: list[dict] = []
    for file in files:
        rel_path = _relative(file, root)
        text = file.read_text(encoding="utf-8")
        try:
            tree = ast.parse(text)
        except SyntaxError as error:
            findings.append(
                Diagnostic(
                    "C000",
                    SEVERITY_ERROR,
                    f"file does not parse: {error.msg}",
                    location=f"{rel_path}:{error.lineno or 0}",
                )
            )
            continue
        pragmas = collect_pragmas(text)
        raw: list[_RawFinding] = []
        site_attrs = sites_for(rel_path, sites)
        functions = [
            node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        module = ast.ClassDef("<module>", [], [], functions, [])
        for node in [module, *ast.walk(tree)]:
            if isinstance(node, ast.ClassDef):
                analyzer = _ClassAnalyzer(
                    rel_path, node, site_attrs, order, raw
                )
                analyzer.analyze()
                for info in analyzer.locks.values():
                    locks.append(
                        {
                            "file": rel_path,
                            "class": node.name,
                            "attr": info.attr,
                            "kind": info.kind,
                            "lock_class": info.lock_class,
                            "rank": info.rank,
                            "line": info.line,
                        }
                    )
        _thread_hygiene_pass(rel_path, tree, raw)
        for item in raw:
            diagnostic = Diagnostic(
                item.code,
                item.severity,
                item.message,
                location=f"{rel_path}:{item.line}",
            )
            if is_suppressed(pragmas, item.line, item.code):
                suppressed.append(diagnostic)
            else:
                findings.append(diagnostic)
    return findings, suppressed, locks


def build_report(
    paths: list[Path],
    root: Path | None = None,
    sites: dict[str, dict[str, str]] | None = None,
    order: tuple[LockClass, ...] | None = None,
) -> dict:
    """The machine-readable report (the CI artifact schema)."""
    findings, suppressed, locks = lint_concurrency(
        paths, root=root, sites=sites, order=order
    )
    effective_order = LOCK_ORDER if order is None else order
    return {
        "tool": "xmlrel-concurrency",
        "lock_order": [
            {
                "name": c.name,
                "rank": c.rank,
                "blocking_ok": list(c.blocking_ok),
            }
            for c in effective_order
        ],
        "locks": locks,
        "findings": [d.to_dict() for d in findings],
        "suppressed": [d.to_dict() for d in suppressed],
        "count": len(findings),
    }


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    json_path = None
    strict = False
    if "--strict" in argv:
        strict = True
        argv.remove("--strict")
    if "--json" in argv:
        at = argv.index("--json")
        try:
            json_path = argv[at + 1]
        except IndexError:
            print(
                "xmlrel-concurrency: --json requires a path",
                file=sys.stderr,
            )
            return 2
        del argv[at:at + 2]
    if argv:
        paths = [Path(arg) for arg in argv]
        root = Path.cwd()
    else:
        package_dir = Path(__file__).resolve().parent.parent
        paths = [package_dir]
        root = package_dir.parent
    report = build_report(paths, root=root)
    if json_path:
        Path(json_path).write_text(
            json.dumps(report, indent=2) + "\n", encoding="utf-8"
        )
    findings = [
        Diagnostic(d["code"], d["severity"], d["message"], d["location"])
        for d in report["findings"]
    ]
    if findings:
        print(format_diagnostics(findings))
    summary = (
        f"xmlrel-concurrency: {len(findings)} finding(s), "
        f"{len(report['suppressed'])} suppressed, "
        f"{len(report['locks'])} lock(s) modeled"
    )
    print(summary)
    if strict:
        return 1 if findings else 0
    return 1 if has_errors(findings) else 0


if __name__ == "__main__":
    sys.exit(main())
