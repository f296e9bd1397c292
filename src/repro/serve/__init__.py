"""Concurrent serving layer: sharding, read pools, scatter-gather.

The pieces, bottom-up:

* :class:`~repro.serve.pool.ConnectionPool` — a bounded per-shard pool
  of read-only WAL connections, health-checked on acquire, sharing one
  thread-safe plan cache and one result cache, each with its own
  invalidation channel (the shard's plan epoch; the data version, which
  a write moves for the one document it changed).
* :class:`~repro.serve.executor.QueryExecutor` — thread-pool
  scatter-gather with per-query deadlines, a max-in-flight admission
  gate, and configurable degraded modes for shard failures.
* :class:`~repro.serve.sharded.ShardedStore` — documents partitioned
  across N shard databases behind the familiar store API, with a
  persistent shard-map catalog, serialized per-shard writes, journaled
  online rebalancing, and crash recovery.
"""

from repro.serve.executor import (
    SHARD_ERROR_MODES,
    QueryExecutor,
    ScatterResult,
    ScatterStream,
    outcome_for,
)
from repro.serve.gateway import ClientQuotas, Gateway
from repro.serve.pool import ConnectionPool, ReadSession
from repro.serve.protocol import (
    QuerySpec,
    error_body,
    parse_query_payload,
    result_body,
)
from repro.serve.sharded import (
    PLACEMENTS,
    RecoveryReport,
    ShardedDocument,
    ShardedStore,
    ShardMap,
    open_sharded,
)

__all__ = [
    "SHARD_ERROR_MODES",
    "PLACEMENTS",
    "ClientQuotas",
    "ConnectionPool",
    "Gateway",
    "QueryExecutor",
    "QuerySpec",
    "ReadSession",
    "RecoveryReport",
    "ScatterResult",
    "ScatterStream",
    "ShardMap",
    "ShardedDocument",
    "ShardedStore",
    "error_body",
    "open_sharded",
    "outcome_for",
    "parse_query_payload",
    "result_body",
]
