"""Client library for the database server.

Speaks the binary wire protocol (:mod:`repro.server.protocol`) over
TCP or an in-process loopback transport; server-reported errors are
re-raised as the matching library exception class
(``UniqueKeyViolationError`` on the server is
``UniqueKeyViolationError`` here, with structured fields like a
deadlock's victim and cycle intact).

One client = one session = at most one open transaction::

    client = DatabaseClient.connect(host, port)
    with client.transaction():
        client.insert("accounts", {"id": 7, "balance": 100})
    row = client.fetch("accounts", "by_id", 7)   # autocommit read
    client.close()

Pipelining: queue many requests, send them in one write, and let the
server batch-execute them — each queued op returns a future::

    with client.pipeline() as pipe:
        futures = [pipe.insert("accounts", row) for row in rows]
    results = [f.result() for f in futures]   # or f.error

Clients are **not** thread-safe — one per worker thread (each gets its
own server session, which is the unit of concurrency server-side).
"""

from __future__ import annotations

import socket
from contextlib import contextmanager
from typing import Iterator

from repro.codec.errors import rebuild_error
from repro.common.errors import ProtocolError, ServerError
from repro.server.protocol import (
    FrameConn,
    SocketTransport,
    raise_from_response,
)


class RemoteTransaction:
    """Handle for the session's open transaction (id only — the state
    lives server-side)."""

    def __init__(self, client: "DatabaseClient", txn_id: int) -> None:
        self.client = client
        self.txn_id = txn_id


class PipelineFuture:
    """The eventual response of one pipelined request."""

    __slots__ = ("op", "done", "_result", "_error")

    def __init__(self, op: str) -> None:
        self.op = op
        self.done = False
        self._result: object = None
        self._error: Exception | None = None

    def _settle(self, response: dict) -> None:
        self.done = True
        if response.get("ok"):
            self._result = response.get("result")
        else:
            self._error = rebuild_error(response)

    def _fail(self, error: Exception) -> None:
        self.done = True
        self._error = error

    @property
    def error(self) -> Exception | None:
        """The op's failure, if any (flushed futures only)."""
        return self._error

    def result(self) -> object:
        """The op's result; raises its server-reported error."""
        if not self.done:
            raise ServerError(
                f"pipelined {self.op!r} not flushed yet", kind="PipelineError"
            )
        if self._error is not None:
            raise self._error
        return self._result


class Pipeline:
    """Queue requests, flush them as one batched write.

    Created by :meth:`DatabaseClient.pipeline`.  Queued ops return
    :class:`PipelineFuture`; :meth:`flush` (or queue pressure at
    ``depth``, or clean context exit) sends every queued frame in one
    write and resolves the futures from the responses, matched by
    correlation id.  While a pipeline has queued
    ops, do not issue plain ``client.request`` calls — the reply stream
    would interleave.
    """

    def __init__(self, client: "DatabaseClient", depth: int = 64) -> None:
        if depth < 1:
            raise ProtocolError("pipeline depth must be at least 1")
        self._client = client
        self._depth = depth
        self._queued: list[tuple[dict, PipelineFuture]] = []

    def request(self, op: str, **args: object) -> PipelineFuture:
        """Queue one op; auto-flushes at the pipeline's depth."""
        client = self._client
        if client.closed:
            raise ServerError("client is closed", kind="ClientClosed")
        message = {"op": op, "corr_id": client._next_corr_id(), **args}
        future = PipelineFuture(op)
        self._queued.append((message, future))
        if len(self._queued) >= self._depth:
            self.flush()
        return future

    def flush(self) -> None:
        """Send every queued request, read every response, settle the
        futures (errors land on the future, not here)."""
        queued, self._queued = self._queued, []
        if not queued:
            return
        client = self._client
        try:
            client._conn.write_messages([m for m, _ in queued])
            responses = []
            for _ in queued:
                response = client._conn.read_message()
                if response is None:
                    raise ServerError(
                        "server closed the connection mid-pipeline",
                        kind="ConnectionLost",
                    )
                responses.append(response)
        except (OSError, socket.timeout) as exc:
            client._closed = True
            error = ServerError(
                f"connection lost during pipeline flush: {exc}",
                kind="ConnectionLost",
            )
            for _, future in queued:
                future._fail(error)
            raise error from exc
        except ServerError as error:
            client._closed = True
            for _, future in queued:
                future._fail(error)
            raise
        by_id = {r.get("corr_id"): r for r in responses}
        for message, future in queued:
            response = by_id.get(message["corr_id"])
            if response is None:
                future._fail(
                    ProtocolError(
                        f"no response for correlation id {message['corr_id']}"
                    )
                )
            else:
                future._settle(response)

    @property
    def pending(self) -> int:
        return len(self._queued)

    # Convenience stubs mirroring the client's op surface.

    def begin(self) -> PipelineFuture:
        return self.request("begin")

    def commit(self) -> PipelineFuture:
        return self.request("commit")

    def ping(self) -> PipelineFuture:
        return self.request("ping")

    def insert(self, table: str, row: dict) -> PipelineFuture:
        return self.request("insert", table=table, row=row)

    def fetch(
        self, table: str, index: str, key: object, isolation: str = "rr"
    ) -> PipelineFuture:
        return self.request(
            "fetch", table=table, index=index, key=key, isolation=isolation
        )

    def delete_by_key(self, table: str, index: str, key: object) -> PipelineFuture:
        return self.request("delete", table=table, index=index, key=key)

    def __enter__(self) -> "Pipeline":
        return self

    def __exit__(self, exc_type: object, *exc: object) -> None:
        if exc_type is None:
            self.flush()
        else:
            # Abandon what was never sent; anything already flushed has
            # settled its futures.
            self._queued.clear()


class DatabaseClient:
    """One session against a :class:`~repro.server.server.DatabaseServer`."""

    def __init__(self, conn: FrameConn) -> None:
        self._conn = conn
        self._closed = False
        self._corr = 0
        conn.start_client()

    @classmethod
    def connect(
        cls, host: str, port: int, timeout: float | None = 30.0
    ) -> "DatabaseClient":
        sock = socket.create_connection((host, port), timeout=timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return cls(FrameConn(SocketTransport(sock)))

    def _next_corr_id(self) -> int:
        self._corr = (self._corr + 1) & 0xFFFFFFFF
        return self._corr or 1

    # -- request plumbing --------------------------------------------------

    def request(self, op: str, **args: object) -> object:
        """Send one request, wait for its response, return the result
        (or raise the server-reported error)."""
        if self._closed:
            raise ServerError("client is closed", kind="ClientClosed")
        message = {"op": op, "corr_id": self._next_corr_id(), **args}
        try:
            self._conn.write_message(message)
            response = self._conn.read_message()
        except (OSError, socket.timeout) as exc:
            self._closed = True
            raise ServerError(
                f"connection lost during {op!r}: {exc}", kind="ConnectionLost"
            ) from exc
        if response is None:
            self._closed = True
            raise ServerError(
                f"server closed the connection during {op!r}", kind="ConnectionLost"
            )
        if not response.get("ok"):
            raise_from_response(response)
        return response.get("result")

    def pipeline(self, depth: int = 64) -> Pipeline:
        """A request pipeline over this connection (see
        :class:`Pipeline`).  ``depth`` bounds queued requests before an
        automatic flush."""
        return Pipeline(self, depth=depth)

    # -- transactions ------------------------------------------------------

    def begin(self) -> RemoteTransaction:
        return RemoteTransaction(self, int(self.request("begin")))  # type: ignore[arg-type]

    def begin_snapshot(self) -> RemoteTransaction:
        """Open a snapshot-read transaction: every read sees one
        consistent version of the database and takes zero locks; writes
        inside it are rejected server-side."""
        return RemoteTransaction(self, int(self.request("begin_snapshot")))  # type: ignore[arg-type]

    def commit(self) -> None:
        self.request("commit")

    def rollback(self) -> None:
        self.request("rollback")

    def savepoint(self, name: str) -> int:
        return int(self.request("savepoint", name=name))  # type: ignore[arg-type]

    def rollback_to_savepoint(self, name: str) -> None:
        self.request("rollback_to_savepoint", name=name)

    @contextmanager
    def transaction(self) -> Iterator[RemoteTransaction]:
        """Commit on clean exit, roll back on exception (re-raised).
        Mirrors ``Database.transaction``; if the server already aborted
        the transaction (deadlock victim), the rollback is a no-op
        failure that stays quiet."""
        txn = self.begin()
        try:
            yield txn
        except BaseException:
            try:
                self.rollback()
            except ServerError:
                pass  # already aborted server-side, or connection gone
            raise
        else:
            self.commit()

    @contextmanager
    def snapshot(self) -> Iterator[RemoteTransaction]:
        """Run a block of lock-free reads against one consistent
        snapshot.  Mirrors ``Database.snapshot``; commit and rollback
        both just release the snapshot server-side."""
        txn = self.begin_snapshot()
        try:
            yield txn
        except BaseException:
            try:
                self.rollback()
            except ServerError:
                pass  # connection gone or already released server-side
            raise
        else:
            self.commit()

    # -- two-phase commit (this session's shard as a participant) ----------

    def prepare(self, gid: str) -> str:
        """Phase 1: vote on the open transaction.  Returns ``"yes"``
        (branch PREPARED, decision pending) or ``"read-only"``."""
        result = self.request("prepare", gid=gid)
        return result["vote"]  # type: ignore[index]

    def decide(self, gid: str, decision: str) -> str:
        """Phase 2: deliver ``"commit"``/``"abort"`` for ``gid``.
        Idempotent; returns the applied outcome (``"forgotten"`` if the
        branch was already resolved)."""
        result = self.request("decide", gid=gid, decision=decision)
        return result["outcome"]  # type: ignore[index]

    def cluster_indoubt(self) -> list[dict]:
        """The shard's prepared-but-undecided branches."""
        return self.request("cluster_indoubt")  # type: ignore[return-value]

    # -- data ops ----------------------------------------------------------

    def insert(self, table: str, row: dict) -> dict:
        return self.request("insert", table=table, row=row)  # type: ignore[return-value]

    def fetch(self, table: str, index: str, key: object, isolation: str = "rr"):
        return self.request(
            "fetch", table=table, index=index, key=key, isolation=isolation
        )

    def fetch_prefix(self, table: str, index: str, prefix: object):
        return self.request("fetch_prefix", table=table, index=index, prefix=prefix)

    def delete_by_key(self, table: str, index: str, key: object) -> dict:
        return self.request("delete", table=table, index=index, key=key)  # type: ignore[return-value]

    def scan(
        self,
        table: str,
        index: str,
        low: object | None = None,
        high: object | None = None,
        limit: int | None = None,
        **kwargs: object,
    ) -> list[dict]:
        args: dict[str, object] = {"table": table, "index": index, **kwargs}
        if low is not None:
            args["low"] = low
        if high is not None:
            args["high"] = high
        if limit is not None:
            args["limit"] = limit
        return self.request("scan", **args)  # type: ignore[return-value]

    # -- DDL / admin -------------------------------------------------------

    def create_table(self, name: str) -> None:
        self.request("create_table", name=name)

    def create_index(
        self, table: str, name: str, column: str, unique: bool = False
    ) -> None:
        self.request(
            "create_index", table=table, name=name, column=column, unique=unique
        )

    def ping(self) -> bool:
        return self.request("ping") == "pong"

    def server_stats(self, prefix: str = "") -> dict[str, int]:
        return self.request("stats", prefix=prefix)  # type: ignore[return-value]

    def server_status(self) -> dict:
        """Recovery state over the wire: ``{"state": "recovering"|"steady",
        "recovering": bool, "recovery": {...progress...}}``."""
        return self.request("status")  # type: ignore[return-value]

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Polite goodbye; always closes the local transport (also
        after a request found the connection lost)."""
        if not self._closed:
            try:
                self.request("close")
            except ServerError:
                pass
        self._closed = True
        self._conn.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "DatabaseClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
