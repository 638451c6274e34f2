"""One client session: connection, transaction lifecycle, op dispatch.

A session owns at most one open transaction at a time.  ``begin``
opens it, ``commit``/``rollback`` close it, and data ops run inside it;
a data op arriving with no transaction open runs *autocommit* (its own
begin/op/commit — the common shape for the load generator's point
requests).  Inside an explicit transaction every data op is wrapped in
a statement savepoint, so a unique-key violation or missing key rolls
back just that statement and the transaction stays usable — the same
idiom the workload harness uses.

The read/respond loop runs on the session's connection thread.  A lone
op executes there too when one of the server's engine slots is free;
batches, and ops that find every slot busy, execute on the server's
worker pool (see :class:`~repro.server.server.DatabaseServer`).  The
slots bound engine concurrency, and the pool's bounded queue applies
backpressure.

:class:`BaseSession` is what such a session shares with a cluster
router's (:class:`~repro.cluster.router.RouterSession`): the read loop,
the dispatch table built from the op registry, response shaping and
idempotent cleanup.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable

from repro.codec.frames import PROTOCOL_V2
from repro.codec.ops import OPS, OpSpec
from repro.common.errors import (
    DeadlockError,
    KeyNotFoundError,
    LockTimeoutError,
    ProtocolError,
    SessionStateError,
    UniqueKeyViolationError,
)
from repro.server.protocol import FrameConn, error_response
from repro.txn.transaction import Transaction

if TYPE_CHECKING:  # pragma: no cover
    from repro.server.frontend import FrontEnd
    from repro.server.server import DatabaseServer
    from repro.txn.manager import PendingCommit

#: Statement errors that roll back to the statement savepoint but keep
#: the surrounding transaction alive.
_STATEMENT_ERRORS = (UniqueKeyViolationError, KeyNotFoundError)
#: Errors that force the whole transaction dead (the engine requires a
#: full rollback after a deadlock victim is chosen).
_TXN_FATAL_ERRORS = (DeadlockError, LockTimeoutError)

_STMT_SAVEPOINT = "__server_stmt__"

#: Hard cap on rows one scan response may carry.
MAX_SCAN_ROWS = 1000
#: Most pipelined requests one connection read may drain into a single
#: executor job (one admission pass, commits coalesced).
MAX_BATCH_REQUESTS = 64

_UNKNOWN = (None, None)


class BaseSession:
    """Server-side state of one connected client: the read loop, the
    dispatch table built from the op registry, response shaping and
    cleanup.  A subclass serves an op by defining its handler method
    (an op with no handler is refused as unknown) and defines three
    more: ``_serve_batch(batch)`` runs and answers one read's worth of
    requests, False when the connection must drop; ``_txn_lost(exc)``
    says whether a failed op ended the open transaction; and
    ``_release()`` rolls that transaction back at cleanup."""

    def __init__(self, server: "FrontEnd", conn: FrameConn, session_id: int) -> None:
        self.server = server
        self.conn = conn
        self.session_id = session_id
        self.closing = False
        #: Set when a request timed out and the connection was dropped
        #: while the op was still running; whoever finishes the op then
        #: performs the cleanup.
        self.abandoned = False
        self._cleanup_done = False
        self._cleanup_lock = threading.Lock()
        #: Op name → (spec, handler function), built once per session
        #: from the shared registry (:mod:`repro.codec.ops`) — the same
        #: table the client stubs and the docs read.
        cls = type(self)
        self._handlers: dict[str, tuple[OpSpec, Callable[..., object]]] = {
            spec.name: (spec, getattr(cls, spec.handler))
            for spec in OPS
            if hasattr(cls, spec.handler)
        }

    def _lookup(self, op: object) -> tuple:
        """``(spec, handler)`` for ``op``; ``(None, None)`` for an op
        this session does not serve."""
        return self._handlers.get(op, _UNKNOWN) if isinstance(op, str) else _UNKNOWN

    # -- connection thread -------------------------------------------------

    def serve(self) -> None:
        """Read requests until EOF/close: each read drains up to
        ``MAX_BATCH_REQUESTS`` pipelined frames and hands them to
        :meth:`_serve_batch`; a malformed frame gets one error frame and
        ends the session."""
        try:
            while not self.closing:
                try:
                    batch = self.conn.read_message_batch(MAX_BATCH_REQUESTS)
                except ProtocolError as exc:
                    try:
                        self.conn.write_message(error_response(exc))
                    except OSError:
                        pass
                    break
                if batch is None:  # client went away
                    break
                if not self._serve_batch(batch):
                    # A request timed out; whoever runs the op cleans up
                    # when it finishes.  Drop the line now — the reply
                    # stream is out of step.
                    return
        except OSError:
            pass  # transport torn down under us (shutdown, crash harness)
        finally:
            if not self.abandoned:
                self.cleanup()

    def cleanup(self) -> None:
        """Release what the session holds and drop the connection.
        Idempotent and safe from any thread."""
        with self._cleanup_lock:
            if self._cleanup_done:
                return
            self._cleanup_done = True
        self._release()
        self.conn.close()
        self.server.forget_session(self)

    # -- executing thread --------------------------------------------------

    def _respond(self, request: dict) -> dict:
        """Run one request through its handler; always returns a
        response message."""
        _, handler = self._lookup(request.get("op"))
        try:
            if handler is None:
                raise ProtocolError(f"unknown op {request.get('op')!r}")
            response = {"ok": True, "result": handler(self, request)}
        except Exception as exc:  # noqa: BLE001,RPR005 - the wire needs *a* reply
            response = error_response(exc)
            if self._txn_lost(exc):
                response["txn_aborted"] = True
        response["corr_id"] = request.get("corr_id", 0)
        return response

    def _op_ping(self, request: dict) -> str:
        return "pong"

    def _op_close(self, request: dict) -> str:
        self.closing = True
        return "bye"


class Session(BaseSession):
    """A session of one :class:`~repro.server.server.DatabaseServer`."""

    server: "DatabaseServer"

    def __init__(
        self, server: "DatabaseServer", conn: FrameConn, session_id: int
    ) -> None:
        super().__init__(server, conn, session_id)
        self.txn: Transaction | None = None
        #: Commits deferred by the batch currently executing on this
        #: session (None outside batch execution).  Requests within a
        #: batch run sequentially, so plain lists suffice.
        self._batch_pending: "list[PendingCommit] | None" = None

    # -- connection thread -------------------------------------------------

    def serve(self) -> None:
        """Read requests until EOF/close.

        A pipelining client may have many frames in flight; each read
        drains up to ``MAX_BATCH_REQUESTS`` of them and batchable ops
        travel through the executor pool as one job (one admission pass,
        commits coalesced into one group flush).  A lone request — the
        non-pipelined path — runs right here when an engine slot is free
        (see :meth:`DatabaseServer.submit`).
        """
        self.server.db.stats.incr("server.sessions_opened")
        super().serve()

    def _serve_batch(self, batch: list[dict]) -> bool:
        """Dispatch one read's worth of requests in arrival order.

        Consecutive batchable ops form a run submitted as one job (a
        run of one is a lone request); direct ops (replication
        long-polls, status) run inline on this thread between runs;
        non-batchable ops (close, unknown) are submitted alone.  Returns
        False when a request timed out and the connection must drop.
        """
        run: list[dict] = []
        for request in batch:
            spec, _ = self._lookup(request.get("op"))
            if spec is not None and spec.batchable:
                run.append(request)
                continue
            if not self._flush_run(run):
                return False
            if spec is not None and spec.direct:
                self.conn.write_message(self._respond(request))
                continue
            response = self.server.submit(self, request)
            if response is None:
                return False
            self.conn.write_message(response)
        return self._flush_run(run)

    def _flush_run(self, run: list[dict]) -> bool:
        if not run:
            return True
        if len(run) == 1:
            response = self.server.submit(self, run[0])
            responses = None if response is None else [response]
        else:
            responses = self.server.submit_batch(self, list(run))
        run.clear()
        if responses is None:
            return False
        self.conn.write_messages(responses)
        return True

    def _release(self) -> None:
        self._abort_open_txn()
        self.server.db.stats.incr("server.sessions_closed")

    # -- executing thread (session or pool worker) ---------------------

    def execute(self, request: dict) -> dict:
        """Run one request; always returns a response message."""
        return self._respond(request)

    def _txn_lost(self, exc: Exception) -> bool:
        if isinstance(exc, _TXN_FATAL_ERRORS):
            self._abort_open_txn()
            return True
        return False

    def execute_batch(self, requests: list[dict]) -> list[dict]:
        """Run a batch of requests sequentially, coalescing commits.

        While the batch runs, every commit (explicit or autocommit)
        appends its COMMIT record but defers the log force; at the end
        one coalesced force covers them all (group commit for pipelined
        clients, even with the log's group commit off).  Locks stay held until
        each commit finishes, so isolation is untouched; a waiter
        blocked on a deferred commit completes it early through the
        lock manager's resolver hook.  Each response reports its own
        commit's true outcome — a failed force patches the response
        after the fact.
        """
        responses: list[dict] = []
        placements: list[tuple[int, "PendingCommit"]] = []
        self._batch_pending = []
        try:
            for request in requests:
                response = self.execute(request)
                for pending in self._batch_pending:
                    placements.append((len(responses), pending))
                self._batch_pending.clear()
                responses.append(response)
        finally:
            self._batch_pending = None
        if placements:
            self.server.db.finish_deferred([p for _, p in placements])
            for index, pending in placements:
                if pending.error is not None:
                    patched = error_response(pending.error)
                    patched["corr_id"] = responses[index].get("corr_id", 0)
                    responses[index] = patched
        return responses

    def _commit_txn(self, txn: Transaction) -> None:
        """Commit now, or defer into the executing batch's group."""
        db = self.server.db
        if self._batch_pending is None:
            db.commit(txn)
            return
        pending = db.commit_deferred(txn)
        if pending is not None:
            self._batch_pending.append(pending)

    def _abort_open_txn(self) -> None:
        txn, self.txn = self.txn, None
        if txn is not None and txn.is_active:
            try:
                self.server.db.rollback(txn)
            except Exception:  # noqa: BLE001,RPR005 - failure counted; restart will undo
                # Engine may have crashed under us; restart will undo.
                self.server.db.stats.incr("server.cleanup_rollback_errors")

    # -- transaction ops ---------------------------------------------------

    def _op_hello(self, request: dict) -> dict:
        """In-band hello (the connection-open handshake hello is
        consumed by the protocol layer before it reaches dispatch)."""
        return {"version": PROTOCOL_V2, "server": "repro"}

    def _op_begin(self, request: dict) -> int:
        if self.txn is not None:
            raise SessionStateError("transaction already open in this session")
        self.txn = self.server.db.begin()
        return self.txn.txn_id

    def _op_begin_snapshot(self, request: dict) -> int:
        """Open a snapshot-read transaction: every read in it sees one
        consistent version of the database and takes zero locks; writes
        are rejected by the engine."""
        if self.txn is not None:
            raise SessionStateError("transaction already open in this session")
        self.txn = self.server.db.begin_snapshot()
        return self.txn.txn_id

    def _require_txn(self) -> Transaction:
        if self.txn is None:
            raise SessionStateError("no transaction open in this session")
        return self.txn

    def _op_commit(self, request: dict) -> int:
        txn = self._require_txn()
        self.txn = None
        self._commit_txn(txn)
        return txn.txn_id

    def _op_rollback(self, request: dict) -> int:
        txn = self._require_txn()
        self.txn = None
        self.server.db.rollback(txn)
        return txn.txn_id

    # -- two-phase commit ops ----------------------------------------------

    def _op_prepare(self, request: dict) -> dict:
        """Phase 1: vote on the session's open transaction.  On a
        ``yes`` vote the branch leaves the session (PREPARED, locks
        held) — the decision arrives later by gid, possibly on a
        different connection after a shard restart.  On failure the
        transaction stays attached so the client can roll it back."""
        txn = self._require_txn()
        vote = self.server.db.prepare(txn, str(request["gid"]))
        self.txn = None
        return {"vote": vote}

    def _op_decide(self, request: dict) -> dict:
        """Phase 2: apply the coordinator's decision to a prepared
        branch, by gid.  Idempotent — an unknown gid means the branch
        was already resolved (or, for abort, never prepared: presumed
        abort needs nothing)."""
        gid = str(request["gid"])
        decision = request.get("decision")
        if decision not in ("commit", "abort"):
            raise ProtocolError(f"unknown decision {decision!r}")
        db = self.server.db
        if db.txns.find_prepared(gid) is None:
            return {"outcome": "forgotten"}
        if decision == "commit":
            db.commit_prepared(gid)
        else:
            db.rollback_prepared(gid)
        return {"outcome": decision}

    def _op_cluster_indoubt(self, request: dict) -> list[dict]:
        """The shard's prepared-but-undecided branches."""
        return [
            {"gid": t.gid, "txn_id": t.txn_id, "prepare_lsn": t.prepare_lsn}
            for t in self.server.db.indoubt_transactions()
        ]

    def _op_savepoint(self, request: dict) -> int:
        return self.server.db.savepoint(self._require_txn(), request["name"])

    def _op_rollback_to_savepoint(self, request: dict) -> None:
        self.server.db.rollback_to_savepoint(self._require_txn(), request["name"])

    # -- data ops ----------------------------------------------------------

    def _run_statement(
        self, fn: Callable[[Transaction], object], snapshot: bool = False
    ) -> object:
        """Run ``fn`` in the open transaction (statement savepoint) or
        autocommit.  Snapshot transactions skip the savepoint wrap —
        they never log, so there is nothing to roll back to; a
        ``snapshot=True`` autocommit runs lock-free under a throwaway
        snapshot instead of a write transaction."""
        db = self.server.db
        if self.txn is not None:
            if self.txn.snapshot is not None:
                return fn(self.txn)
            db.savepoint(self.txn, _STMT_SAVEPOINT)
            try:
                return fn(self.txn)
            except _STATEMENT_ERRORS:
                db.rollback_to_savepoint(self.txn, _STMT_SAVEPOINT)
                raise
        if snapshot:
            with db.snapshot() as txn:
                return fn(txn)
        txn = db.begin()
        try:
            result = fn(txn)
        except BaseException:
            if txn.is_active:
                db.rollback(txn)
            raise
        if txn.is_active:
            self._commit_txn(txn)
        return result

    def _op_insert(self, request: dict) -> dict:
        table, row = request["table"], request["row"]
        rid = self._run_statement(lambda txn: self.server.db.insert(txn, table, row))
        return {"page_id": rid.page_id, "slot": rid.slot}

    def _op_fetch(self, request: dict) -> dict | None:
        return self._run_statement(
            lambda txn: self.server.db.fetch(
                txn,
                request["table"],
                request["index"],
                request["key"],
                isolation=request.get("isolation", "rr"),
            ),
            snapshot=request.get("isolation") == "snapshot",
        )

    def _op_fetch_prefix(self, request: dict) -> dict | None:
        return self._run_statement(
            lambda txn: self.server.db.fetch_prefix(
                txn, request["table"], request["index"], request["prefix"]
            )
        )

    def _op_delete(self, request: dict) -> dict:
        return self._run_statement(
            lambda txn: self.server.db.delete_by_key(
                txn, request["table"], request["index"], request["key"]
            )
        )

    def _op_scan(self, request: dict) -> list[dict]:
        limit = min(int(request.get("limit", MAX_SCAN_ROWS)), MAX_SCAN_ROWS)

        def scan(txn: Transaction) -> list[dict]:
            rows: list[dict] = []
            for _, row in self.server.db.scan(
                txn,
                request["table"],
                request["index"],
                low=request.get("low"),
                high=request.get("high"),
                low_comparison=request.get("low_comparison", ">="),
                high_comparison=request.get("high_comparison", "<="),
                isolation=request.get("isolation", "rr"),
            ):
                rows.append(row)
                if len(rows) >= limit:
                    break
            return rows

        return self._run_statement(
            scan, snapshot=request.get("isolation") == "snapshot"
        )

    # -- DDL / admin -------------------------------------------------------

    def _op_create_table(self, request: dict) -> str:
        self.server.db.create_table(request["name"])
        return request["name"]

    def _op_create_index(self, request: dict) -> str:
        self.server.db.create_index(
            request["table"],
            request["name"],
            column=request["column"],
            unique=bool(request.get("unique", False)),
        )
        return request["name"]

    def _op_stats(self, request: dict) -> dict[str, int]:
        prefix = request.get("prefix", "")
        return {
            name: value
            for name, value in self.server.db.stats.snapshot().items()
            if name.startswith(prefix)
        }

    def _op_status(self, request: dict) -> dict:
        """Wire-level recovery state: ``recovering`` until an instant
        restart's drain finishes, ``steady`` otherwise, plus the
        governor's progress so clients and standbys can back off."""
        db = self.server.db
        state = db.recovery_state
        result: dict = {"state": state, "recovering": state == "recovering"}
        governor = db.recovery
        if governor is not None:
            result["recovery"] = governor.progress()
        return result

    # -- replication (WAL shipping) ----------------------------------------

    def _replication(self):
        replication = self.server.db.replication
        if replication is None:
            raise SessionStateError(
                "replication is not enabled on this server "
                "(call db.enable_replication() first)"
            )
        return replication

    def _op_repl_handshake(self, request: dict) -> dict:
        return self._replication().handshake(str(request["name"]))

    def _op_repl_snapshot(self, request: dict) -> dict:
        return self._replication().snapshot()

    def _op_repl_poll(self, request: dict) -> dict:
        replication = self._replication()
        return replication.poll(
            str(request["name"]),
            int(request["from_lsn"]),
            max_bytes=int(request.get("max_bytes", 256 * 1024)),
            wait_seconds=min(float(request.get("wait_seconds", 0.0)), 30.0),
        )

    def _op_repl_ack(self, request: dict) -> dict:
        return self._replication().ack(
            str(request["name"]), int(request["lsn"])
        )

    def _op_repl_status(self, request: dict) -> dict:
        return self._replication().status()
