"""Transaction manager: begin/commit/rollback, savepoints, NTAs.

Rollback walks the transaction's backward chain writing CLRs (via the
resource managers), honouring the two chain-surgery rules of ARIES
(§1.2):

- undoing a non-CLR writes a CLR whose ``undo_next_lsn`` is the undone
  record's ``prev_lsn``;
- encountering a CLR (including the dummy CLR that seals a nested top
  action) *jumps* to its ``undo_next_lsn`` — which is how a completed
  SMO is skipped over during rollback (Figures 9 and 10).

Commit forces the log (the only synchronous log I/O in the normal
path); data pages are never forced (no-force) and may have been stolen.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro.codec.values import encode_lock_table
from repro.common.errors import (
    CommitNotDurableError,
    DatabaseClosedError,
    TransactionNotActiveError,
)
from repro.common.stats import StatsRegistry
from repro.locks.modes import LockDuration
from repro.txn.rm import ResourceManagerRegistry
from repro.txn.transaction import Transaction, TxnStatus
from repro.wal.log import LogManager
from repro.wal.records import (
    NULL_LSN,
    LogRecord,
    RecordKind,
    commit_record,
    dummy_clr,
    end_record,
    prepare_record,
)

#: Phase-1 vote values (two-phase commit).
VOTE_YES = "yes"
VOTE_READ_ONLY = "read-only"

if TYPE_CHECKING:  # pragma: no cover
    from repro.db import Database
    from repro.incarnation import Incarnation
    from repro.locks.manager import LockManager


class TransactionManager:
    """Owns the transaction table of one incarnation and drives
    commit/rollback.  Every transaction it begins or adopts carries
    that incarnation (``Transaction.incarnation``)."""

    def __init__(
        self,
        log: LogManager,
        locks: "LockManager",
        registry: ResourceManagerRegistry,
        stats: StatsRegistry | None,
        incarnation: "Incarnation",
    ) -> None:
        self._log = log
        self._locks = locks
        self._registry = registry
        self._stats = stats or StatsRegistry()
        self._incarnation = incarnation
        self._mutex = threading.Lock()
        self._next_txn_id = 1
        self._table: dict[int, Transaction] = {}
        #: Orders every transaction record's append-and-note against
        #: checkpoint begin records (see :meth:`log_for`); reentrant, so
        #: :meth:`_log_commit` notes a COMMIT's LSN under it too.
        self._log_order = threading.RLock()
        #: Optional synchronous-replication gate, called with the commit
        #: record's LSN after the transaction is locally durable and
        #: fully ended.  Raising withholds the *acknowledgement* only —
        #: the transaction is committed either way (in-doubt surfaced
        #: to the caller, never silent).
        self.commit_gate = None
        #: MVCC hook, called with ``(txn_id, commit_lsn)`` after the
        #: commit record is durable and *before* locks are released —
        #: a commit must have its snapshot timestamp before any reader
        #: can be exposed to its effects.
        self.on_commit = None

    # -- transaction table ---------------------------------------------------

    def begin(self) -> Transaction:
        with self._mutex:
            txn = Transaction(txn_id=self._next_txn_id, incarnation=self._incarnation)
            self._next_txn_id += 1
            self._table[txn.txn_id] = txn
        self._stats.incr("txn.begun")
        return txn

    def active_transactions(self) -> list[Transaction]:
        with self._mutex:
            return [t for t in self._table.values() if t.is_active]

    def prepared_transactions(self) -> list[Transaction]:
        """The in-doubt branches: PREPAREd, coordinator decision pending."""
        with self._mutex:
            return [t for t in self._table.values() if t.is_prepared]

    def undecided_transactions(self) -> list[Transaction]:
        """Transactions whose log chain must stay readable: the active
        ones (total rollback walks to ``first_lsn``) plus the prepared
        ones (a restart must re-read their PREPARE records)."""
        with self._mutex:
            return [
                t for t in self._table.values() if t.is_active or t.is_prepared
            ]

    def find_prepared(self, gid: str) -> Transaction | None:
        with self._mutex:
            for txn in self._table.values():
                if txn.is_prepared and txn.gid == gid:
                    return txn
        return None

    def table_snapshot(self) -> dict[int, Transaction]:
        with self._mutex:
            return dict(self._table)

    def adopt(self, txn: Transaction) -> None:
        """Install a transaction reconstructed by restart analysis."""
        txn.incarnation = self._incarnation
        with self._mutex:
            self._table[txn.txn_id] = txn
            if txn.txn_id >= self._next_txn_id:
                self._next_txn_id = txn.txn_id + 1

    def forget(self, txn_id: int) -> None:
        with self._mutex:
            self._table.pop(txn_id, None)

    def adopt_floor(self, txn_id: int) -> None:
        """Ensure future transaction ids start at or above ``txn_id``
        (no id reuse across a restart)."""
        with self._mutex:
            if txn_id > self._next_txn_id:
                self._next_txn_id = txn_id

    @property
    def next_txn_id(self) -> int:
        """The id the next ``begin`` would hand out (checkpoints record
        it so instant restart can re-establish the no-reuse floor
        without a full log scan)."""
        with self._mutex:
            return self._next_txn_id

    # -- logging helper ---------------------------------------------------------

    def log_for(self, txn: Transaction, record: LogRecord) -> int:
        """Chain ``record`` onto ``txn`` and append it to the log (a page
        record only through ``Incarnation.log_page_change``).

        The append and the note are one step no checkpoint begin record
        falls inside: a record before the begin record is already on the
        transaction table the checkpoint reads, and one after it is in
        the next analysis span.  So restart's undo never starts below a
        loser's last record, and a committed transaction never reaches a
        checkpoint as a loser.

        The append goes through the log handle of ``txn``'s own
        incarnation: a thread still holding a pre-crash transaction (a
        GC pass, a session unwinding) finds that handle retired, so its
        record never chains onto a log the restart has resolved."""
        if txn.snapshot is not None:
            raise TransactionNotActiveError(
                f"snapshot transaction {txn.txn_id} is read-only and may not log"
            )
        record.txn_id = txn.txn_id
        record.prev_lsn = txn.last_lsn
        with self._log_order:
            lsn = txn.incarnation.log.append(record)
            txn.note_logged(lsn)
        return lsn

    # -- commit --------------------------------------------------------------------

    def commit(self, txn: Transaction) -> None:
        """Append the COMMIT record, force the log through it, then
        timestamp, unlock and forget the transaction.

        Read-only transactions skip the log: they logged nothing, so
        ARIES needs no COMMIT/END records and no force for them — the
        common autocommit-read shape never touches the log.
        """
        if not txn.is_active:
            raise TransactionNotActiveError(f"cannot commit {txn!r}")
        if txn.first_lsn == NULL_LSN:
            # (A crash retired the lock table too: the release below
            # fails loudly even though nothing was logged.)
            txn.status = TxnStatus.COMMITTED
            released = self._locks.release_all(txn.txn_id)
            self._stats.incr("txn.locks_released_at_commit", released)
            txn.status = TxnStatus.ENDED
            self.forget(txn.txn_id)
            self._stats.incr(("txn.committed", "txn.readonly_commits"))
            return
        commit_lsn = self._log_commit(txn, commit_record(txn.txn_id))
        # The one synchronous log I/O of the normal path.  It raises
        # CommitNotDurableError if a crash wins the race: the
        # transaction was never acknowledged and restart rolls it back.
        # Concurrent committers share the write through the log's queue.
        self._log.force_for_commit(commit_lsn)
        if txn.incarnation.retired:
            # A crash landed while this commit was in flight and the
            # force may have run against the *resumed* log (the record
            # itself died in the volatile tail).  Whether the COMMIT
            # made it is unknowable from here — never acknowledge;
            # restart decides, as for any in-doubt commit.
            raise CommitNotDurableError(
                f"txn {txn.txn_id}: crash raced the commit; outcome "
                "decided by restart"
            )
        self._end_committed(txn, commit_lsn)
        self._stats.incr("txn.committed")
        # Synchronous replication holds the *acknowledgement* (not the
        # commit — that is already durable and irreversible) until a
        # standby confirms durable receipt.  Read-only transactions
        # changed nothing a failover could lose, so they skip the gate.
        gate = self.commit_gate
        if gate is not None:
            gate(commit_lsn, txn.incarnation)

    def _log_commit(self, txn: Transaction, record: LogRecord) -> int:
        """:meth:`log_for` a COMMIT record and note its LSN on ``txn`` in
        the same step."""
        with self._log_order:
            lsn = txn.commit_lsn = self.log_for(txn, record)
        return lsn

    def append_checkpoint_begin(self, record: LogRecord) -> int:
        """Append a checkpoint's begin record while no transaction record
        is between its append and its note (see :meth:`log_for`)."""
        with self._log_order:
            return self._log.append(record)

    def _end_committed(self, txn: Transaction, commit_lsn: int) -> None:
        """Once a force covers the COMMIT record: timestamp, unlock,
        forget.  The COMMIT record ends the transaction's log chain:
        analysis retires a transaction at its COMMIT, so no END follows."""
        txn.status = TxnStatus.COMMITTED
        # Timestamp the commit (durable) before its locks drop: a
        # snapshot begun after the release must already see it.
        on_commit = self.on_commit
        if on_commit is not None:
            on_commit(txn.txn_id, commit_lsn)
        try:
            released = self._locks.release_all(txn.txn_id)
            self._stats.incr("txn.locks_released_at_commit", released)
        except DatabaseClosedError:
            # The commit record is already durable — the transaction IS
            # committed and the caller must be acknowledged.  A crash
            # landed right here: its locks died with the lock table.
            pass
        txn.status = TxnStatus.ENDED
        self.forget(txn.txn_id)

    # -- frozen benchmark entry points ------------------------------------------
    #
    # The benchmark's tracer wraps these two names (bench/trace.py
    # TARGETS), so they stay until the tracer stops rebinding engine
    # attributes.  Nothing in the engine calls them: a commit inside a
    # server batch is an ordinary :meth:`commit`.

    def commit_deferred(self, txn: Transaction) -> None:
        """Kept for the benchmark's tracer: an ordinary :meth:`commit`."""
        self.commit(txn)

    def finish_deferred(self, pendings: list) -> None:
        """Kept for the benchmark's tracer: every commit finishes in
        :meth:`commit`, so there is nothing left to finish."""

    # -- two-phase commit (presumed abort) --------------------------------------

    def prepare(self, txn: Transaction, gid: str) -> str:
        """Phase 1: vote on global transaction ``gid``.

        A read-only branch (no log records) votes ``read-only`` and
        vanishes immediately — presumed abort needs nothing from it and
        the coordinator drops it from phase 2.  Otherwise the branch
        forces a PREPARE record carrying its COMMIT-duration lock set
        and parks as PREPARED: locks held, neither loser nor winner,
        until :meth:`commit_prepared` or :meth:`rollback_prepared`.
        """
        if not txn.is_active:
            raise TransactionNotActiveError(f"cannot prepare {txn!r}")
        if txn.first_lsn == NULL_LSN:
            released = self._locks.release_all(txn.txn_id)
            self._stats.incr("txn.locks_released_at_commit", released)
            txn.status = TxnStatus.ENDED
            self.forget(txn.txn_id)
            self._stats.incr("txn.votes_read_only")
            return VOTE_READ_ONLY
        locks = encode_lock_table(
            [
                (name, mode.value)
                for name, mode, duration in self._locks.locks_of(txn.txn_id)
                if duration is LockDuration.COMMIT
            ]
        )
        record = prepare_record(txn.txn_id, gid, locks)
        prepare_lsn = self.log_for(txn, record)
        # Forced like a commit: the vote must survive a crash, else the
        # coordinator could commit a global transaction whose branch is
        # rolled back as a restart loser.
        self._log.force_for_commit(txn.last_lsn)
        if txn.incarnation.retired:
            # Same race as commit: the force may have run against the
            # resumed log.  Vote no; a durable PREPARE is resolved by
            # presumed-abort recovery.
            raise CommitNotDurableError(
                f"txn {txn.txn_id}: crash raced the prepare; vote withheld"
            )
        txn.status = TxnStatus.PREPARED
        txn.gid = gid
        txn.prepare_lsn = prepare_lsn
        self._stats.incr("txn.prepared")
        return VOTE_YES

    def commit_prepared(self, txn: Transaction) -> None:
        """Phase 2, decision = commit, for a PREPARED branch."""
        if not txn.is_prepared:
            raise TransactionNotActiveError(f"cannot commit-prepared {txn!r}")
        commit = LogRecord(
            kind=RecordKind.COMMIT,
            txn_id=txn.txn_id,
            payload={"gid": txn.gid},
            undoable=False,
        )
        commit_lsn = self._log_commit(txn, commit)
        self._log.force_for_commit(txn.last_lsn)
        self._end_committed(txn, commit_lsn)
        self._stats.incr(("txn.committed", "txn.prepared_committed"))

    def rollback_prepared(self, ctx: "Database", txn: Transaction) -> None:
        """Phase 2, decision = abort, for a PREPARED branch."""
        if not txn.is_prepared:
            raise TransactionNotActiveError(f"cannot rollback-prepared {txn!r}")
        self._roll_back(ctx, txn)
        self._stats.incr("txn.prepared_aborted")

    # -- rollback --------------------------------------------------------------------

    def rollback(self, ctx: "Database", txn: Transaction) -> None:
        """Total rollback."""
        if not txn.is_active:
            raise TransactionNotActiveError(f"cannot rollback {txn!r}")
        self._roll_back(ctx, txn)

    def _roll_back(self, ctx: "Database", txn: Transaction) -> None:
        rollback = LogRecord(
            kind=RecordKind.ROLLBACK, txn_id=txn.txn_id, undoable=False
        )
        self.log_for(txn, rollback)
        txn.status = TxnStatus.ROLLING_BACK
        txn.in_rollback = True
        try:
            self.undo_to(ctx, txn, NULL_LSN)
        finally:
            txn.in_rollback = False
        txn.status = TxnStatus.ABORTED
        released = self._locks.release_all(txn.txn_id)
        self._stats.incr("txn.locks_released_at_rollback", released)
        self.log_for(txn, end_record(txn.txn_id))
        txn.status = TxnStatus.ENDED
        self.forget(txn.txn_id)
        self._stats.incr("txn.rolled_back")

    def savepoint(self, txn: Transaction, name: str) -> int:
        """Establish a savepoint at the transaction's current position."""
        txn.savepoints[name] = txn.last_lsn
        return txn.last_lsn

    def rollback_to_savepoint(self, ctx: "Database", txn: Transaction, name: str) -> None:
        """Partial rollback.  Locks acquired since the savepoint are
        retained (per ARIES, releasing them would jeopardize repeatable
        read for data the transaction may have read)."""
        if not txn.is_active:
            raise TransactionNotActiveError(f"cannot partially rollback {txn!r}")
        save_lsn = txn.savepoints[name]
        txn.in_rollback = True
        try:
            self.undo_to(ctx, txn, save_lsn)
        finally:
            txn.in_rollback = False
        self._stats.incr("txn.partial_rollbacks")

    def undo_to(self, ctx: "Database", txn: Transaction, stop_lsn: int) -> None:
        """Walk the undo chain back to (exclusive) ``stop_lsn``."""
        lsn = txn.undo_next_lsn
        while lsn > stop_lsn:
            record = self._log.read(lsn)
            if record.is_clr:
                lsn = record.undo_next_lsn or NULL_LSN
            elif record.kind is RecordKind.UPDATE and record.undoable:
                self._registry.undo(ctx, txn, record)
                self._stats.incr("txn.records_undone")
                lsn = record.prev_lsn
            else:
                lsn = record.prev_lsn
            txn.undo_next_lsn = lsn

    # -- nested top actions ------------------------------------------------------------

    def begin_nta(self, txn: Transaction) -> None:
        """Remember the LSN the eventual dummy CLR must point back to
        (Figure 8: 'Remember LSN of last log record of transaction')."""
        txn.nta_stack.append(txn.last_lsn)

    def end_nta(self, txn: Transaction) -> int:
        """Seal the innermost nested top action with a dummy CLR."""
        start_lsn = txn.nta_stack.pop()
        record = dummy_clr(txn.txn_id, undo_next_lsn=start_lsn)
        lsn = self.log_for(txn, record)
        self._stats.incr("txn.nta_completed")
        return lsn

    def abandon_nta(self, txn: Transaction) -> None:
        """Drop the innermost NTA marker without sealing it (the NTA was
        interrupted; its records remain undoable, which is the desired
        outcome per §1.2)."""
        txn.nta_stack.pop()
