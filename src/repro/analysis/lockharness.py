"""Runtime lock-order harness: wrapped locks that police the order.

The static analyzer (:mod:`repro.analysis.concurrency`) proves what it
can see syntactically; this module covers the rest at test time by
*watching real acquisitions*.  A :class:`LockWatcher` wraps the live
``threading.Lock`` objects of a running store in :class:`OrderedLock`
shims that record, per thread, the stack of locks held at every
acquire and feed a global acquired-after graph:

* acquiring a lock ranked **lower** (see
  :data:`~repro.analysis.concurrency.LOCK_ORDER`) than one already
  held records an *order violation*;
* acquiring a **same-class, lower-index** lock (shard locks must be
  taken in ascending shard order) records an order violation;
* a **cycle** in the acquired-after graph — lock A taken under B in
  one place, B under A in another, the classic ABBA deadlock even when
  no single run hangs — records a *cycle violation* with the path;
* re-acquiring a non-reentrant lock the same thread already holds
  raises :class:`~repro.errors.LockDisciplineError` *before* blocking,
  turning a silent deadlock into a typed test failure.

Violations are recorded (not raised) so a run completes and reports
everything; counters are exported through :mod:`repro.obs` as
``concurrency.acquires`` / ``concurrency.releases`` /
``concurrency.order_violations`` / ``concurrency.cycles`` /
``concurrency.double_acquires``.

Opt-in wiring: ``instrument_sharded_store`` swaps a live
:class:`~repro.serve.sharded.ShardedStore`'s locks for wrapped ones;
``tests/conftest.py`` applies it to every store the suite opens when
``XMLREL_LOCK_HARNESS=1`` (the CI ``concurrency-analysis`` job), and
fails the session on any recorded violation.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field

from repro.analysis.concurrency import LOCK_CLASSES, LOCK_ORDER, LockClass
from repro.errors import LockDisciplineError
from repro.obs.metrics import MetricsRegistry


@dataclass(frozen=True)
class LockViolation:
    """One recorded breach of the declared lock order."""

    kind: str  # "order" | "cycle"
    thread: str
    acquired: str  # label of the lock being acquired
    held: tuple[str, ...]  # labels held at that moment, outermost first
    detail: str

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "thread": self.thread,
            "acquired": self.acquired,
            "held": list(self.held),
            "detail": self.detail,
        }


class OrderedLock:
    """A lock shim that reports every acquire/release to its watcher.

    Drop-in for ``threading.Lock`` at ``with lock:`` and
    ``acquire()``/``release()`` call sites.  Reentrant wrapping is
    idempotent (wrapping an :class:`OrderedLock` returns it unchanged).
    """

    __slots__ = ("inner", "watcher", "label", "lock_class", "rank",
                 "index", "reentrant")

    def __init__(
        self,
        inner,
        watcher: "LockWatcher",
        label: str,
        lock_class: str,
        rank: int | None,
        index: int | None = None,
        reentrant: bool = False,
    ) -> None:
        self.inner = inner
        self.watcher = watcher
        self.label = label
        self.lock_class = lock_class
        self.rank = rank
        self.index = index
        self.reentrant = reentrant

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self.watcher._before_acquire(self)
        acquired = self.inner.acquire(blocking, timeout)
        if acquired:
            self.watcher._after_acquire(self)
        return acquired

    def release(self) -> None:
        self.watcher._after_release(self)
        self.inner.release()

    def locked(self) -> bool:
        return self.inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<OrderedLock {self.label} rank={self.rank}>"


@dataclass
class _Report:
    acquires: int = 0
    releases: int = 0
    violations: list[LockViolation] = field(default_factory=list)
    edges: dict[str, set[str]] = field(default_factory=dict)


class LockWatcher:
    """Global acquisition recorder shared by every wrapped lock."""

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        order: tuple[LockClass, ...] = LOCK_ORDER,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.classes = {c.name: c for c in order}
        self._local = threading.local()
        # The watcher's own guard sits outside the declared order on
        # purpose: it is only ever held for queue/graph bookkeeping and
        # never while a wrapped lock is being acquired.
        self._meta = threading.Lock()  # lint: allow(L005)
        self._state = _Report()

    # -- wrapping -----------------------------------------------------------------

    def wrap(
        self,
        lock,
        label: str,
        lock_class: str,
        index: int | None = None,
        reentrant: bool = False,
    ) -> OrderedLock:
        """Wrap *lock* under *label*; ``lock_class`` must name a class
        in the declared order (rank None for unranked ad-hoc locks)."""
        if isinstance(lock, OrderedLock):
            return lock
        rank = (
            self.classes[lock_class].rank
            if lock_class in self.classes
            else None
        )
        return OrderedLock(
            lock, self, label, lock_class, rank, index, reentrant
        )

    # -- per-thread stack ---------------------------------------------------------

    def _stack(self) -> list[OrderedLock]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def held_labels(self) -> tuple[str, ...]:
        """Labels the calling thread holds right now, outermost first."""
        return tuple(lock.label for lock in self._stack())

    # -- acquisition hooks --------------------------------------------------------

    def _before_acquire(self, lock: OrderedLock) -> None:
        if lock.reentrant:
            return
        for held in self._stack():
            if held is lock:
                self.metrics.counter("concurrency.double_acquires").inc()
                raise LockDisciplineError(
                    f"thread {threading.current_thread().name!r} "
                    f"re-acquired non-reentrant lock {lock.label!r} "
                    f"it already holds (held: "
                    f"{', '.join(self.held_labels())}) — this would "
                    "deadlock"
                )

    def _after_acquire(self, lock: OrderedLock) -> None:
        stack = self._stack()
        self.metrics.counter("concurrency.acquires").inc()
        thread = threading.current_thread().name
        held_labels = tuple(h.label for h in stack)
        violations: list[LockViolation] = []
        for held in stack:
            inverted = (
                held.rank is not None
                and lock.rank is not None
                and lock.rank < held.rank
            )
            misindexed = (
                held.lock_class == lock.lock_class
                and held.index is not None
                and lock.index is not None
                and lock.index < held.index
            )
            if inverted or misindexed:
                what = (
                    f"rank {lock.rank} under rank {held.rank}"
                    if inverted
                    else f"index {lock.index} under index {held.index} "
                    f"of class {lock.lock_class!r}"
                )
                violations.append(
                    LockViolation(
                        "order",
                        thread,
                        lock.label,
                        held_labels,
                        f"acquired {lock.label} ({what}) while holding "
                        f"{held.label}",
                    )
                )
        with self._meta:
            self._state.acquires += 1
            new_edges = []
            for held in stack:
                if held is lock:
                    # Reentrant re-acquire: a self-edge is not an
                    # ordering fact, and would read as a cycle.
                    continue
                targets = self._state.edges.setdefault(held.label, set())
                if lock.label not in targets:
                    targets.add(lock.label)
                    new_edges.append(held.label)
            self._state.violations.extend(violations)
            cycle = None
            if new_edges:
                cycle = self._find_cycle_locked(lock.label, set(new_edges))
            if cycle is not None:
                self._state.violations.append(
                    LockViolation(
                        "cycle",
                        thread,
                        lock.label,
                        held_labels,
                        "acquired-after cycle: " + " -> ".join(cycle),
                    )
                )
        if violations:
            self.metrics.counter("concurrency.order_violations").inc(
                len(violations)
            )
        if cycle is not None:
            self.metrics.counter("concurrency.cycles").inc()
        stack.append(lock)

    def _find_cycle_locked(
        self, start: str, targets: set[str]
    ) -> list[str] | None:
        """A path ``start -> ... -> t`` for some new edge ``t -> start``
        (DFS over the acquired-after graph; caller holds ``_meta``)."""
        path = [start]
        seen = {start}

        def dfs(label: str) -> list[str] | None:
            for nxt in sorted(self._state.edges.get(label, ())):
                if nxt in targets:
                    return path + [nxt, start]
                if nxt in seen:
                    continue
                seen.add(nxt)
                path.append(nxt)
                found = dfs(nxt)
                if found is not None:
                    return found
                path.pop()
            return None

        return dfs(start)

    def _after_release(self, lock: OrderedLock) -> None:
        stack = self._stack()
        for position in range(len(stack) - 1, -1, -1):
            if stack[position] is lock:
                del stack[position]
                break
        self.metrics.counter("concurrency.releases").inc()
        with self._meta:
            self._state.releases += 1

    # -- reporting ----------------------------------------------------------------

    @property
    def violations(self) -> tuple[LockViolation, ...]:
        with self._meta:
            return tuple(self._state.violations)

    def report(self) -> dict:
        """JSON-able summary (the CI ``lock-harness-report.json``)."""
        with self._meta:
            return {
                "tool": "xmlrel-lockharness",
                "acquires": self._state.acquires,
                "releases": self._state.releases,
                "edges": {
                    source: sorted(targets)
                    for source, targets in sorted(self._state.edges.items())
                },
                "violations": [
                    v.to_dict() for v in self._state.violations
                ],
                "count": len(self._state.violations),
            }

    def write_report(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.report(), handle, indent=2)
            handle.write("\n")

    def assert_clean(self) -> None:
        """Raise :class:`LockDisciplineError` when violations were
        recorded (the test-teardown gate)."""
        violations = self.violations
        if violations:
            lines = "; ".join(v.detail for v in violations[:5])
            raise LockDisciplineError(
                f"{len(violations)} lock-order violation(s) recorded: "
                f"{lines}"
            )

    def reset(self) -> None:
        with self._meta:
            self._state = _Report()


def instrument_sharded_store(store, watcher: LockWatcher) -> None:
    """Swap a live :class:`~repro.serve.sharded.ShardedStore`'s locks
    for watched :class:`OrderedLock` shims (idempotent).

    Wraps the store's shard locks, the catalog lock its shard map and
    journal share (one shim, handed back to both), the shard-map
    mirror, every pool's bookkeeping, plan-cache and result-cache
    locks, and the metrics registry lock — the lock set whose relative
    order the registry declares.  Queue internals and per-instrument
    metric locks stay unwrapped.
    """
    store._shard_locks = [
        watcher.wrap(lock, f"shard[{index}]", "shard", index=index)
        for index, lock in enumerate(store._shard_locks)
    ]
    catalog_lock = watcher.wrap(
        store.shard_map.catalog_lock, "map.catalog", "map"
    )
    store.shard_map.catalog_lock = store.journal.catalog_lock = catalog_lock
    store.shard_map._lock = watcher.wrap(
        store.shard_map._lock, "map.mirror", "map"
    )
    for shard, pool in store.pools.items():
        pool._lock = watcher.wrap(
            pool._lock, f"pool[{shard}]", "pool", index=shard
        )
        pool.plan_cache._lock = watcher.wrap(
            pool.plan_cache._lock, f"pool[{shard}].plans", "pool"
        )
        pool.result_cache._lock = watcher.wrap(
            pool.result_cache._lock, f"pool[{shard}].results", "pool"
        )
    store.metrics._lock = watcher.wrap(
        store.metrics._lock, "metrics", "metrics"
    )
