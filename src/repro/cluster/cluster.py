"""In-process cluster orchestration: N shard servers + a coordinator.

This is the harness-facing assembly used by tests, the torture
harness, and the CI smoke job: each shard is a full
:class:`~repro.db.Database` (own WAL, buffer pool, lock table) behind
its own :class:`~repro.server.server.DatabaseServer`, crashed and
restarted independently.  ``crash_shard``/``crash_coordinator`` model
process failure (volatile tail lost, in-flight commits resolve to
``CommitNotDurableError``); ``resolve_indoubt`` runs the presumed-abort
recovery protocol: the coordinator re-pushes every END-less commit
decision, then every remaining prepared branch without a durable
commit decision is aborted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.config import DatabaseConfig
from repro.common.errors import ShardUnavailableError
from repro.cluster.client import ClusterClient
from repro.cluster.coordinator import Coordinator
from repro.db import Database
from repro.server.client import DatabaseClient
from repro.server.server import DatabaseServer, ServerConfig


@dataclass
class Shard:
    """One shard: its engine, its server, and its liveness flag."""

    shard_id: int
    db: Database
    server: DatabaseServer
    up: bool = True
    listen: bool = field(default=False, repr=False)

    def connect(self) -> DatabaseClient:
        if not self.up:
            raise ShardUnavailableError(f"shard {self.shard_id} is down")
        if self.listen:
            return self.server.connect()
        return self.server.connect_loopback()


class Cluster:
    """A hash-partitioned cluster of independent shard databases."""

    def __init__(
        self,
        num_shards: int = 3,
        config: DatabaseConfig | None = None,
        server_config: ServerConfig | None = None,
        listen: bool = False,
        key_column: str = "id",
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.key_column = key_column
        self._listen = listen
        self._config = config or DatabaseConfig(lock_timeout_seconds=1.0)
        self._server_config = server_config or ServerConfig(
            workers=4,
            queue_depth=32,
            request_timeout_seconds=10.0,
            drain_timeout_seconds=10.0,
        )
        self.coordinator = Coordinator()
        self.shards: list[Shard] = []
        for shard_id in range(num_shards):
            db = Database(self._config)
            server = DatabaseServer(db, self._server_config).start(listen=listen)
            self.shards.append(
                Shard(shard_id=shard_id, db=db, server=server, listen=listen)
            )

    # -- clients -------------------------------------------------------------

    def client(self) -> ClusterClient:
        """A fresh cluster session (one shard session per shard)."""
        return ClusterClient(
            [shard.connect() for shard in self.shards],
            self.coordinator,
            key_column=self.key_column,
        )

    def client_for_shard(self, shard_id: int) -> DatabaseClient:
        """A fresh direct session against one shard."""
        return self.shards[shard_id].connect()

    def create_table(self, name: str) -> None:
        for shard in self.shards:
            shard.db.create_table(name)

    def create_index(
        self, table: str, name: str, column: str, unique: bool = False
    ) -> None:
        for shard in self.shards:
            shard.db.create_index(table, name, column=column, unique=unique)

    # -- failure injection ---------------------------------------------------

    def crash_shard(self, shard_id: int) -> None:
        """Shard process failure: volatile WAL tail and server gone."""
        shard = self.shards[shard_id]
        shard.db.crash()
        shard.server.abort()
        shard.up = False

    def restart_shard(self, shard_id: int) -> None:
        """ARIES restart of the shard (prepared branches come back
        in-doubt with their locks), then a fresh server on top."""
        shard = self.shards[shard_id]
        shard.db.restart()
        shard.server = DatabaseServer(shard.db, self._server_config).start(
            listen=shard.listen
        )
        shard.up = True

    def crash_coordinator(self) -> None:
        self.coordinator.crash()

    def restart_coordinator(self) -> int:
        """Recover the coordinator's decision tables from its log.
        Returns the number of outstanding commit decisions."""
        return self.coordinator.restart()

    # -- in-doubt resolution -------------------------------------------------

    def resolve_indoubt(self) -> int:
        """Run the presumed-abort recovery protocol cluster-wide.

        1. The coordinator re-pushes every outstanding (END-less)
           commit decision to its participants.
        2. Each shard's remaining prepared branches are resolved by the
           coordinator's durable decision — commit iff a COORD_COMMIT
           record survived, otherwise abort (presumed).

        Returns the number of branches resolved in step 2."""
        self.coordinator.recover(self.client_for_shard)
        resolved = 0
        for shard in self.shards:
            if not shard.up:
                continue
            client = shard.connect()
            try:
                for entry in client.cluster_indoubt():
                    gid = entry["gid"]
                    client.decide(gid, self.coordinator.decision_for(gid))
                    resolved += 1
            finally:
                client.close()
        return resolved

    def indoubt_gids(self) -> dict[int, list[str]]:
        """Prepared-but-undecided branches per live shard (tests)."""
        out: dict[int, list[str]] = {}
        for shard in self.shards:
            if not shard.up:
                continue
            out[shard.shard_id] = [
                txn.gid for txn in shard.db.indoubt_transactions()
            ]
        return out

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        for shard in self.shards:
            try:
                if shard.up:
                    shard.server.abort()
                shard.db.close()
            except Exception:  # noqa: BLE001,RPR005 - best-effort teardown
                pass

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
