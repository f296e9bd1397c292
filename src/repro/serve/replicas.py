"""WAL-snapshot replica fan-out for one shard.

A :class:`ReplicaSet` maintains N read-only copies of one shard file
(``shard-00.replica-0.db``, ``shard-00.replica-1.db``, …) inside the
store directory.  A *ship* takes a consistent point-in-time snapshot of
the primary (``VACUUM INTO`` — sqlite's own locking keeps WAL readers
proceeding) into a temporary file, then atomically renames it over the
replica (``os.replace``), so a replica file is **always** a complete,
internally-consistent database: a crash mid-ship leaves at worst a
stale ``*.tmp`` file (swept on recovery) next to the still-intact
previous replica.

Each shipped replica is served by its own
:class:`~repro.serve.pool.ConnectionPool`; after a re-ship the pool is
*recycled* (generation bump) so no pooled connection keeps reading the
unlinked old file.  The scatter-gather executor round-robins across
these pools when asked to read from replicas, falling back to the
primary when a replica cannot answer.

Staleness accounting lives in the catalog
(:class:`~repro.relational.shardmap.ShardState`), owned by the sharded
store — this module only moves files and manages pools.

Fault injection: replica-pool connections consult the store's
:class:`~repro.reliability.faults.ShardFaultPolicy` under the negative
pseudo-shard key :func:`replica_fault_key`, so a test can take one
replica down without touching its primary (the replica-lag degraded
mode).  The ship itself runs on the primary's writer connection, so
crash sweeps reach it through the *primary's* fault key like any other
write.
"""

from __future__ import annotations

import os
from collections.abc import Callable

from repro.errors import StorageError
from repro.obs.metrics import MetricsRegistry
from repro.relational.database import Database
from repro.serve.pool import ConnectionPool


#: Connections in each replica's read pool.
REPLICA_POOL_CONNECTIONS = 2


def replica_fault_key(shard: int, replica: int) -> int:
    """The :class:`~repro.reliability.faults.ShardFaultPolicy` key a
    replica's connections consult.  Negative by construction so it can
    never collide with a primary shard number."""
    return -(shard * 1000 + replica + 1)


class ReplicaSet:
    """N snapshot-shipped read replicas of one shard file."""

    def __init__(
        self,
        shard: int,
        directory: str,
        count: int,
        pool_for: Callable[[str, str, int, int], ConnectionPool],
        metrics: MetricsRegistry,
    ) -> None:
        """*pool_for* ``(path, name, fault_key, size)`` builds a read
        pool the way the owning store builds its primaries'."""
        if count < 1:
            raise StorageError("replica count must be >= 1")
        self.shard = shard
        self.directory = directory
        self.count = count
        self.pool_for = pool_for
        self.metrics = metrics
        #: replica index → pool, created on first ship (before that the
        #: replica file does not exist and nothing should read it).
        self.pools: dict[int, ConnectionPool] = {}

    # -- paths --------------------------------------------------------------------

    def replica_path(self, replica: int) -> str:
        return os.path.join(
            self.directory,
            f"shard-{self.shard:02d}.replica-{replica}.db",
        )

    def _tmp_path(self, replica: int) -> str:
        return self.replica_path(replica) + ".tmp"

    def sweep_tmp(self) -> int:
        """Remove stale mid-ship temporaries (crash leftovers)."""
        removed = 0
        for replica in range(self.count):
            tmp = self._tmp_path(replica)
            if os.path.exists(tmp):
                os.remove(tmp)
                removed += 1
        return removed

    # -- shipping -----------------------------------------------------------------

    def ship_one(self, source: Database, replica: int) -> None:
        """Snapshot *source* over replica number *replica*.

        Snapshot-into-temporary then atomic rename: the replica file is
        never observable half-written.  Recycles (or builds) the
        replica's pool afterwards.
        """
        if not 0 <= replica < self.count:
            raise StorageError(
                f"shard {self.shard} has {self.count} replica(s); "
                f"no replica {replica}"
            )
        tmp = self._tmp_path(replica)
        if os.path.exists(tmp):
            os.remove(tmp)  # stale leftover of a crashed ship
        source.snapshot_into(tmp)
        os.replace(tmp, self.replica_path(replica))
        self.metrics.counter(
            f"replica.shard{self.shard}.ships"
        ).inc()
        pool = self.pools.get(replica)
        if pool is not None:
            pool.recycle()
        else:
            self.pools[replica] = self._build_pool(replica)

    def _build_pool(self, replica: int) -> ConnectionPool:
        return self.pool_for(
            self.replica_path(replica),
            f"shard{self.shard}r{replica}",
            replica_fault_key(self.shard, replica),
            REPLICA_POOL_CONNECTIONS,
        )

    def shipped_pools(self) -> list[ConnectionPool]:
        """Pools of every replica shipped at least once, index order."""
        return [
            self.pools[replica]
            for replica in sorted(self.pools)
        ]

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        for pool in self.pools.values():
            pool.close()
        self.pools.clear()
