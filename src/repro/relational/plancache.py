"""A bounded LRU cache for rendered XPath→SQL translations.

Repeated queries over the same scheme skip parse → plan → AST → render
entirely: the cache stores the rendered ``(sql, params-template)`` pairs
(one per top-level union arm) keyed by ``(scheme, plan_epoch, xpath)``.

The parameter templates contain the :data:`repro.relational.sql.DOC_ID`
placeholder instead of a concrete document id, so one cached plan serves
every document in the store (see
:func:`repro.relational.sql.bind_doc_id`).

Invalidation is by *epoch*: schemes whose translations depend on stored
data (universal's label columns, binary's partition tables, edge's and
binary's label paths) bump their ``plan_epoch`` on schema-affecting
stores/deletes/updates, which makes every older key unreachable; the
LRU bound then ages the stale entries out.  Data-independent schemes
never need to invalidate.  A plan expanded over the label-path catalog
also carries the catalog version it was built at
(:attr:`CachedPlan.paths_version`), which a hit checks, so a path
another connection committed is not missed either.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass, field


def plan_key(scheme: str, epoch: int, xpath: str) -> tuple:
    """The cache key of *xpath*'s plans on a *scheme* at plan *epoch* —
    built here only, so the translator that fills the cache and the
    observers that peek at it agree on the entry."""
    return (scheme, epoch, xpath)


@dataclass(frozen=True)
class CachedPlan:
    """One rendered, executable statement of a translation.

    ``params`` is a template: :data:`~repro.relational.sql.DOC_ID`
    placeholders mark where the document id goes at execution time.
    :attr:`diagnostics` is the plan linter's verdict on this statement
    (empty when the plan is clean), walked by
    ``_lint`` the first time it is read (``_verdict`` is ``None`` until
    then) and kept with the SQL, so cache hits keep their analysis.
    """

    sql: str
    params: tuple
    join_count: int
    _verdict: tuple | None = field(default=(), compare=False, repr=False)
    _lint: Callable | None = field(default=None, compare=False, repr=False)
    #: The label-path catalog version a ``//`` expansion was built at
    #: (``None``: the plan does not depend on the catalog).
    paths_version: int | None = field(default=None, compare=False)

    @property
    def diagnostics(self) -> tuple:
        # Walk before verdict: a racing reader stores the verdict before
        # it clears the walk, so one of the two is always there.
        lint = self._lint
        verdict = self._verdict
        if verdict is None:
            verdict = lint()
            object.__setattr__(self, "_verdict", verdict)
            object.__setattr__(self, "_lint", None)
        return verdict


class PlanCache:
    """Bounded LRU mapping cache keys to ``tuple[CachedPlan, ...]``.

    A plain (non-union) XPath caches as a 1-tuple; a top-level union
    caches one plan per arm.  Hit/miss/eviction counts are kept here so
    they are observable even without an enabled tracer.

    All operations are serialized under one lock, so a cache may be
    shared by every read connection of a pool (the serving layer does
    exactly that: one warm cache per shard instead of one cold cache per
    pooled connection).  The LRU reordering makes even ``get`` a write,
    so a lock — not a reader/writer split — is the right tool.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, tuple[CachedPlan, ...]] = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: tuple) -> tuple[CachedPlan, ...] | None:
        with self._lock:
            plans = self._entries.get(key)
            if plans is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return plans

    def peek(self, key: tuple) -> tuple[CachedPlan, ...] | None:
        """Look up *key* without counting a hit/miss or touching LRU
        order — for observers (the wide-event log's ``plan_cached``
        field, lint-verdict reporting) that must not perturb the cache
        statistics the serving tests assert on."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key: tuple, plans: tuple[CachedPlan, ...]) -> None:
        with self._lock:
            self._entries[key] = plans
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are kept — they are cumulative)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict[str, int]:
        """Cumulative counters plus the current size."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._entries),
                "capacity": self.capacity,
            }
