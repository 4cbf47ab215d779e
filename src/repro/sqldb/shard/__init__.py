"""Horizontal sharding: partitioned, replicated backends with routing.

Public surface:

- :class:`~repro.sqldb.shard.topology.PartitionSpec` /
  :class:`~repro.sqldb.shard.topology.ShardTopology` — how tables map to
  shards (hash or range partitioning; unlisted tables broadcast).
- :class:`~repro.sqldb.shard.router.Router` — classifies statements as
  single-shard / scatter / gather / broadcast-read.
- :class:`~repro.sqldb.shard.sharded.ShardedDatabase` — the Database-
  compatible facade the server, drivers, and harness run against.
"""

from repro.sqldb.shard.router import (KIND_BROADCAST_READ, KIND_GATHER,
                                      KIND_SCATTER, KIND_SINGLE, Router)
from repro.sqldb.shard.sharded import COORD_STATION, ShardedDatabase
from repro.sqldb.shard.topology import HASH, RANGE, PartitionSpec, \
    ShardTopology

__all__ = [
    "COORD_STATION", "HASH", "KIND_BROADCAST_READ", "KIND_GATHER",
    "KIND_SCATTER", "KIND_SINGLE", "PartitionSpec", "RANGE", "Router",
    "ShardTopology", "ShardedDatabase",
]
