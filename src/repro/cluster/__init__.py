"""Horizontal sharding with two-phase commit (presumed abort).

The key space is hash-partitioned across N independent
:class:`~repro.db.Database` shards, each served by its own
:class:`~repro.server.server.DatabaseServer`.  A
:class:`~repro.cluster.client.ClusterClient` routes every operation to
the owning shard; a transaction that touched one shard commits exactly
as before (zero added overhead), while a cross-shard transaction runs
two-phase commit against a :class:`~repro.cluster.coordinator.Coordinator`
whose own WAL makes the commit decision durable.  The
:class:`~repro.cluster.router.ShardRouter` front-end speaks the
existing wire protocol so an unmodified
:class:`~repro.server.client.DatabaseClient` can talk to the whole
cluster through one address.
"""

from repro.cluster.cluster import Cluster
from repro.cluster.router import ShardRouter
from repro.cluster.routing import shard_for_key

__all__ = [
    "Cluster",
    "ShardRouter",
    "shard_for_key",
]
