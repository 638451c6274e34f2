"""Wire-protocol front-end for the cluster.

The :class:`ShardRouter` listens like a
:class:`~repro.server.server.DatabaseServer` and speaks the same
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
import socket
import threading
from typing import TYPE_CHECKING, Callable

from repro.common.errors import (
    ProtocolError,
    ServerShutdownError,
    SessionStateError,
)
from repro.server.client import DatabaseClient
from repro.server.protocol import (
    FrameConn,
    SocketTransport,
    error_response,
    loopback_pair,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.client import ClusterClient
    from repro.cluster.cluster import Cluster

#: Pipelined frames drained per connection read (the router executes
#: inline, so this only bounds buffering, not engine concurrency).
_MAX_BATCH = 64

_UNSUPPORTED = {
    "savepoint": "savepoints are not supported through the cluster router",
    "rollback_to_savepoint": (
        "savepoints are not supported through the cluster router"
    ),
    "prepare": "the router runs two-phase commit itself; prepare is internal",
    "decide": "the router runs two-phase commit itself; decide is internal",
    "cluster_indoubt": "in-doubt inspection is a shard-level op",
}


class RouterSession:
    """One connected client of the router."""

    def __init__(
        self, router: "ShardRouter", conn: FrameConn, session_id: int
    ) -> None:
        self.router = router
        self.conn = conn
        self.session_id = session_id
        self.backend: "ClusterClient" = router.cluster.client()
        self._txn_id: int | None = None
        self._ops: dict[str, Callable[[dict], object]] = {
            "ping": lambda _r: "pong",
            "begin": self._op_begin,
            "commit": self._op_commit,
            "rollback": self._op_rollback,
            "insert": self._op_insert,
            "fetch": self._op_fetch,
            "fetch_prefix": self._op_fetch_prefix,
            "delete": self._op_delete,
            "scan": self._op_scan,
            "create_table": self._op_create_table,
            "create_index": self._op_create_index,
            "stats": self._op_stats,
            "status": self._op_status,
            "close": self._op_close,
        }
        self.closing = False

    # -- connection thread ---------------------------------------------------

    def serve(self) -> None:
        try:
            while not self.closing:
                try:
                    batch = self.conn.read_message_batch(_MAX_BATCH)
                except ProtocolError as exc:
                    try:
                        self.conn.write_message(error_response(exc))
                    except OSError:
                        pass
                    break
                if batch is None:
                    break
                try:
                    self.conn.write_messages(
                        [self.execute(request) for request in batch]
                    )
                except OSError:
                    break
        except OSError:
            pass  # transport torn down under us
        finally:
            self.cleanup()

    def execute(self, request: dict) -> dict:
        op = request.get("op")
        if isinstance(op, str) and op in _UNSUPPORTED:
            response = error_response(SessionStateError(_UNSUPPORTED[op]))
            response["corr_id"] = request.get("corr_id", 0)
            return response
        handler = self._ops.get(op) if isinstance(op, str) else None
        if handler is None:
            response = error_response(ProtocolError(f"unknown op {op!r}"))
            response["corr_id"] = request.get("corr_id", 0)
            return response
        try:
            response = {"ok": True, "result": handler(request)}
        except Exception as exc:  # noqa: BLE001,RPR005 - the wire needs *a* reply
            response = error_response(exc)
            # A failed cluster commit/abort leaves no open transaction.
            if self._txn_id is not None and not self.backend._txn_open:
                self._txn_id = None
                response["txn_aborted"] = True
        response["corr_id"] = request.get("corr_id", 0)
        return response

    def cleanup(self) -> None:
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
        self.conn.close()
        self.router.forget_session(self)

    # -- ops -----------------------------------------------------------------

    def _op_begin(self, request: dict) -> int:
        if self._txn_id is not None:
            raise SessionStateError("transaction already open in this session")
        self.backend.begin()
        self._txn_id = next(self.router.txn_ids)
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

    def _op_close(self, request: dict) -> str:
        self.closing = True
        return "bye"


class ShardRouter:
    """Serve a :class:`~repro.cluster.cluster.Cluster` through the
    single-node wire protocol."""

    def __init__(self, cluster: "Cluster", host: str = "127.0.0.1", port: int = 0):
        self.cluster = cluster
        self.host = host
        self.port = port
        self.txn_ids = itertools.count(1)
        self._sessions: set[RouterSession] = set()
        self._sessions_lock = threading.Lock()
        self._session_ids = itertools.count(1)
        self._listener: socket.socket | None = None
        self._address: tuple[str, int] | None = None
        self._accept_thread: threading.Thread | None = None
        self._stopping = False
        self._started = False

    # -- lifecycle -----------------------------------------------------------

    def start(self, listen: bool = True) -> "ShardRouter":
        if self._started:
            return self
        self._started = True
        if listen:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self.port))
            listener.listen(128)
            self._listener = listener
            self._address = listener.getsockname()
            self._accept_thread = threading.Thread(
                target=self._accept_loop, name="router-accept", daemon=True
            )
            self._accept_thread.start()
        return self

    @property
    def address(self) -> tuple[str, int]:
        if self._address is None:
            raise ServerShutdownError("router is not listening")
        return self._address

    def connect(self, timeout: float | None = 30.0) -> DatabaseClient:
        host, port = self.address
        return DatabaseClient.connect(host, port, timeout=timeout)

    def connect_loopback(self) -> DatabaseClient:
        if self._stopping or not self._started:
            raise ServerShutdownError("router is not accepting sessions")
        server_end, client_end = loopback_pair()
        self._spawn_session(server_end)
        return DatabaseClient(FrameConn(client_end))

    def _spawn_session(self, transport: SocketTransport) -> RouterSession:
        session = RouterSession(
            self, FrameConn(transport), next(self._session_ids)
        )
        with self._sessions_lock:
            self._sessions.add(session)
        thread = threading.Thread(
            target=session.serve,
            name=f"router-session-{session.session_id}",
            daemon=True,
        )
        thread.start()
        return session

    def forget_session(self, session: RouterSession) -> None:
        with self._sessions_lock:
            self._sessions.discard(session)

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopping:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return  # listener closed by shutdown
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._spawn_session(SocketTransport(sock))

    def shutdown(self) -> None:
        if self._stopping:
            return
        self._stopping = True
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._sessions_lock:
            sessions = list(self._sessions)
        for session in sessions:
            try:
                session.conn.close()
            except Exception:  # noqa: BLE001,RPR005 - best-effort teardown of a dying router
                pass
