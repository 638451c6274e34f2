"""Wire-protocol front-end for the cluster.

The :class:`ShardRouter` is a :class:`~repro.server.frontend.FrontEnd`
like :class:`~repro.server.server.DatabaseServer` — the same listener,
session threads, read loop and op registry — and speaks the same
binary wire protocol, so an **unmodified**
:class:`~repro.server.client.DatabaseClient` talks to the whole
cluster through one address.  Each router session owns a
:class:`~repro.cluster.client.ClusterClient` (one back-end session per
shard) and maps client ops onto it; the client never learns the
sharding exists — except through the two deliberate gaps:

- ``savepoint`` / ``rollback_to_savepoint`` raise ``SessionStateError``
  (a cross-shard savepoint would need per-branch savepoint trees plus a
  partial-rollback protocol; ARIES/IM's nested top actions stay
  shard-local).
- ``prepare`` / ``decide`` / ``cluster_indoubt`` raise too: the router
  *is* the coordinator front-end, clients of the router don't run 2PC
  themselves.

There is no router-level worker pool: each session thread executes its
op inline, and the per-shard servers' own pools bound engine
concurrency — the router adds routing, not admission control.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable

from repro.common.errors import SessionStateError
from repro.server.frontend import FrontEnd
from repro.server.session import BaseSession

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.client import ClusterClient
    from repro.cluster.cluster import Cluster
    from repro.server.protocol import FrameConn


def _refuse(reason: str) -> Callable[["RouterSession", dict], object]:
    """Handler of an op the router deliberately does not serve."""

    def refuse(self: "RouterSession", request: dict) -> object:
        raise SessionStateError(reason)

    return refuse


class RouterSession(BaseSession):
    """One connected client of the router.  An op with no handler here
    (in-band ``hello``, ``begin_snapshot``, the ``repl_*`` ops) is
    refused as unknown, like any op a session does not serve."""

    server: "ShardRouter"

    def __init__(
        self, router: "ShardRouter", conn: "FrameConn", session_id: int
    ) -> None:
        super().__init__(router, conn, session_id)
        self.backend: "ClusterClient" = router.cluster.client()
        self._txn_id: int | None = None

    def _serve_batch(self, batch: list[dict]) -> bool:
        self.conn.write_messages([self._respond(request) for request in batch])
        return True

    def _txn_lost(self, exc: Exception) -> bool:
        # A failed cluster commit/abort leaves no open transaction.
        if self._txn_id is not None and not self.backend._txn_open:
            self._txn_id = None
            return True
        return False

    def _release(self) -> None:
        if self._txn_id is not None:
            self._txn_id = None
            try:
                self.backend.rollback()
            except Exception:  # noqa: BLE001,RPR005 - reply best-effort; client treats drop as in-doubt
                pass
        try:
            self.backend.close()
        except Exception:  # noqa: BLE001,RPR005 - socket already dead; session loop exits
            pass

    # -- ops -----------------------------------------------------------------

    _op_savepoint = _op_rollback_to_savepoint = _refuse(
        "savepoints are not supported through the cluster router"
    )
    _op_prepare = _refuse("the router runs two-phase commit itself; prepare is internal")
    _op_decide = _refuse("the router runs two-phase commit itself; decide is internal")
    _op_cluster_indoubt = _refuse("in-doubt inspection is a shard-level op")

    def _op_begin(self, request: dict) -> int:
        if self._txn_id is not None:
            raise SessionStateError("transaction already open in this session")
        self.backend.begin()
        self._txn_id = next(self.server.txn_ids)
        return self._txn_id

    def _op_commit(self, request: dict) -> int:
        if self._txn_id is None:
            raise SessionStateError("no transaction open in this session")
        txn_id, self._txn_id = self._txn_id, None
        self.backend.commit()
        return txn_id

    def _op_rollback(self, request: dict) -> int:
        if self._txn_id is None:
            raise SessionStateError("no transaction open in this session")
        txn_id, self._txn_id = self._txn_id, None
        self.backend.rollback()
        return txn_id

    def _op_insert(self, request: dict) -> dict:
        return self.backend.insert(request["table"], request["row"])

    def _op_fetch(self, request: dict):
        return self.backend.fetch(
            request["table"],
            request["index"],
            request["key"],
            isolation=request.get("isolation", "rr"),
        )

    def _op_fetch_prefix(self, request: dict):
        return self.backend.fetch_prefix(
            request["table"], request["index"], request["prefix"]
        )

    def _op_delete(self, request: dict) -> dict:
        return self.backend.delete_by_key(
            request["table"], request["index"], request["key"]
        )

    def _op_scan(self, request: dict) -> list[dict]:
        passthrough = {
            key: request[key]
            for key in (
                "low_comparison",
                "high_comparison",
                "isolation",
            )
            if key in request
        }
        return self.backend.scan(
            request["table"],
            request["index"],
            low=request.get("low"),
            high=request.get("high"),
            limit=request.get("limit"),
            **passthrough,
        )

    def _op_create_table(self, request: dict) -> str:
        self.backend.create_table(request["name"])
        return request["name"]

    def _op_create_index(self, request: dict) -> str:
        self.backend.create_index(
            request["table"],
            request["name"],
            column=request["column"],
            unique=bool(request.get("unique", False)),
        )
        return request["name"]

    def _op_stats(self, request: dict) -> dict[str, int]:
        return self.backend.server_stats(request.get("prefix", ""))

    def _op_status(self, request: dict) -> dict:
        return self.backend.server_status()


class ShardRouter(FrontEnd):
    """Serve a :class:`~repro.cluster.cluster.Cluster` through the
    single-node wire protocol."""

    session_class = RouterSession
    thread_prefix = "router"
    noun = "router"

    def __init__(self, cluster: "Cluster", host: str = "127.0.0.1", port: int = 0):
        super().__init__(host, port)
        self.cluster = cluster
        self.txn_ids = itertools.count(1)

    def shutdown(self) -> None:
        """Stop accepting, then close every session (its open cluster
        transaction rolls back) and join its thread.  A second call
        does nothing."""
        if not self._stopping:
            self._stop()
