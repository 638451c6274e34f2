"""The public database facade.

Wires the substrates together — simulated disk, WAL, buffer pool,
latch and lock managers, transaction manager, heap, and the ARIES/IM
B+-tree — and exposes the surface a downstream user works with::

    db = Database()
    accounts = db.create_table("accounts")
    db.create_index("accounts", "by_id", column="id", unique=True)

    txn = db.begin()
    db.insert(txn, "accounts", {"id": 7, "balance": 100})
    db.commit(txn)

    db.crash()      # drop all volatile state
    db.restart()    # ARIES analysis / redo / undo

Everything a crash destroys is one :class:`~repro.incarnation.Incarnation`
(``db.incarnation``; ``db.buffer``, ``db.locks`` and the like read its
parts).  ``crash()`` and ``close()`` retire it in one step and
``restart()`` builds the next, so a handle from before — a transaction,
an open scan, a page pin — raises ``DatabaseClosedError`` at its next
use after ``crash()``, ``restart()`` or ``close()``.  ``begin()`` raises
it too, from ``crash()`` until ``restart()`` has finished.

Crash simulation keeps the *catalog* (table/index names, root page
ids) in memory: the paper is about index management, not catalog
management, and a real system would recover the catalog from its own
(also ARIES-protected) tables.  Everything that matters to the
experiments — page contents, log contents, transaction state — lives
in the simulated durable stores or the incarnation and genuinely dies
with ``crash()``.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from operator import attrgetter
from typing import Iterator

from repro.common.config import DEFAULT_CONFIG, DatabaseConfig
from repro.common.errors import (
    ConfigError,
    KeyNotFoundError,
    PermanentIOError,
    RecoveryError,
    TransactionNotActiveError,
)
from repro.common.failpoints import FailpointRegistry
from repro.common.keys import UserKey
from repro.common.rid import RID
from repro.common.stats import StatsRegistry
from repro.btree.node import IndexPage
from repro.btree.protocol import DataOnlyLocking, LockingProtocol, make_protocol
from repro.btree.recovery import BTreeResourceManager
from repro.btree.tree import BTree
from repro.data.heap import HeapResourceManager
from repro.data.table import Row, Table, decode_row
from repro.incarnation import CLOSED, CRASHED, Incarnation
from repro.mvcc.gc import GcReport, run_mvcc_gc
from repro.recovery.checkpoint import take_checkpoint
from repro.recovery.instant import run_instant_restart
from repro.recovery.restart import RestartReport
from repro.storage.disk import DiskManager
from repro.storage.faults import FaultInjector
from repro.txn.manager import PendingCommit
from repro.txn.rm import ResourceManagerRegistry
from repro.txn.transaction import Transaction, TxnStatus
from repro.wal.log import LogManager
from repro.wal.records import RM_BTREE, RM_HEAP, LogRecord, RecordKind, update_record


class Database:
    """One simulated database instance."""

    def __init__(
        self,
        config: DatabaseConfig = DEFAULT_CONFIG,
        fault_injector: FaultInjector | None = None,
    ) -> None:
        self.config = config
        self.stats = StatsRegistry()
        self.failpoints = FailpointRegistry()
        self.fault_injector = fault_injector
        if fault_injector is not None:
            fault_injector.attach_stats(self.stats)
        self.disk = DiskManager(config.page_size, self.stats, fault_injector)
        self.log = LogManager(self.stats, self.failpoints)
        self.log.flush_latency_seconds = config.log_flush_latency_seconds
        if config.group_commit:
            self.log.start_group_commit(config.group_commit_max_wait_seconds)
        self.rm_registry = ResourceManagerRegistry()
        self.rm_registry.register(RM_HEAP, HeapResourceManager())
        self.rm_registry.register(RM_BTREE, BTreeResourceManager())
        self.tables: dict[str, Table] = {}
        self._indexes_by_id: dict[int, BTree] = {}
        self._table_ids = itertools.count(1)
        self._index_ids = itertools.count(1)
        #: WAL archive receiving truncated prefixes (attach_archive).
        self.archive = None
        #: Primary-side replication state (enable_replication).
        self.replication = None
        #: Serializes fatal-I/O crashes: the first fault of an
        #: incarnation crashes it, and only that one counts.
        self._panic_lock = threading.Lock()
        self._panicked: Incarnation | None = None
        #: Everything a crash destroys; retired by crash() until
        #: restart() builds the next, and CLOSED after close().
        self.incarnation: Incarnation = Incarnation(self)
        #: The incarnation new transactions begin in: the current one
        #: once restart() has finished building it (until then the
        #: retired one, which refuses), CLOSED after close().
        self._open: Incarnation = self.incarnation
        self._start_gc_pacer()

    # The current incarnation's parts.  An operation on behalf of a
    # transaction reaches them through ``txn.incarnation`` instead.
    buffer = property(attrgetter("incarnation.buffer"))
    latches = property(attrgetter("incarnation.latches"))
    locks = property(attrgetter("incarnation.locks"))
    txns = property(attrgetter("incarnation.txns"))
    mvcc = property(attrgetter("incarnation.mvcc"))
    versions = property(attrgetter("incarnation.versions"))
    recovery = property(attrgetter("incarnation.recovery"))

    # -- schema -------------------------------------------------------------------

    def create_table(self, name: str) -> Table:
        if name in self.tables:
            raise ConfigError(f"table {name!r} already exists")
        table = Table(self, next(self._table_ids), name)
        self.tables[name] = table
        return table

    def create_index(
        self,
        table_name: str,
        index_name: str,
        column: str,
        unique: bool = False,
        protocol: LockingProtocol | str | None = None,
    ) -> BTree:
        """Create a B+-tree index on ``column``; backfills existing rows.

        ``protocol`` replaces ARIES/IM's data-only locking for this
        index (used by the baseline-comparison experiments)."""
        table = self.tables[table_name]
        if index_name in table.indexes:
            raise ConfigError(f"index {index_name!r} already exists")
        if protocol is None:
            protocol = DataOnlyLocking()
        elif isinstance(protocol, str):
            protocol = make_protocol(protocol)

        from repro.btree.smo import format_page

        index_id = next(self._index_ids)
        txn = self.begin()
        root_id = self.disk.allocate_page_id()
        root = IndexPage(root_id, index_id, level=0)
        format_page(txn, root, undoable=False)

        tree = BTree(
            ctx=self,
            index_id=index_id,
            name=index_name,
            table_id=table.table_id,
            column=column,
            root_page_id=root_id,
            unique=unique,
            protocol=protocol,
        )
        table.indexes[index_name] = tree
        self._indexes_by_id[index_id] = tree

        # Backfill: index every existing visible record.
        from repro.btree.insert import index_insert

        for rid in table.heap.scan_rids():
            row = table.fetch_row(txn, rid, lock=False)
            index_insert(tree, txn, tree.make_key(row[column], rid))
        self.commit(txn)
        return tree

    def drop_index(self, table_name: str, index_name: str) -> None:
        """Drop an index: every tree page is freed (logged, so the drop
        is redone after a crash) and the catalog entry removed.

        DDL isolation is out of scope (as is the catalog itself, see
        the module docstring): the caller must quiesce operations on
        the index being dropped.
        """
        from repro.btree.smo import freed_payload

        table = self.tables[table_name]
        tree = table.indexes[index_name]
        txn = self.begin()
        ctx = txn.incarnation
        tree.smo_begin(txn)  # exclude SMOs while we dismantle
        try:
            page_ids: list[int] = []

            def collect(page_id: int) -> None:
                page = ctx.buffer.fix(page_id)
                try:
                    children = (
                        list(page.child_ids) if isinstance(page, IndexPage) else []
                    )
                finally:
                    ctx.buffer.unfix(page_id)
                page_ids.append(page_id)
                for child in children:
                    collect(child)

            collect(tree.root_page_id)
            for page_id in page_ids:
                page = ctx.buffer.fix(page_id)
                ctx.latches.page_latch(page_id).acquire("X")
                try:
                    freed = freed_payload(page_id)
                    record = update_record(
                        txn.txn_id,
                        RM_BTREE,
                        "set_page",
                        page_id,
                        {"before": page.to_payload(), "after": freed},
                    )
                    ctx.log_page_change(
                        txn, page, record, lambda: page.load_payload(freed)
                    )
                finally:
                    ctx.latches.page_latch(page_id).release()
                    ctx.buffer.unfix(page_id)
        finally:
            tree.smo_end(txn)
        del table.indexes[index_name]
        del self._indexes_by_id[tree.index_id]
        self.commit(txn)
        self.stats.incr("db.indexes_dropped")

    def index_by_id(self, index_id: int) -> BTree:
        return self._indexes_by_id[index_id]

    # -- transactions ----------------------------------------------------------------

    def begin(self) -> Transaction:
        return self._open.txns.begin()

    @contextmanager
    def transaction(self) -> Iterator[Transaction]:
        """Scope a transaction: commit on normal exit, roll back on any
        exception (which is re-raised)::

            with db.transaction() as txn:
                db.insert(txn, "t", {...})
        """
        txn = self.begin()
        try:
            yield txn
        except BaseException:
            if txn.is_active:
                self.rollback(txn)
            raise
        else:
            if txn.is_active:
                self.commit(txn)

    def commit(self, txn: Transaction) -> None:
        if txn.snapshot is not None:
            self.end_snapshot(txn)
            return
        txn.incarnation.txns.commit(txn)
        self._maybe_checkpoint()

    def commit_deferred(self, txn: Transaction) -> PendingCommit | None:
        """Append the COMMIT record but defer the durability force and
        lock release so a server batch can coalesce many commits into
        one flush.  Snapshot and read-only transactions complete
        immediately and return None; any returned handle must be passed
        to :meth:`finish_deferred`."""
        if txn.snapshot is not None:
            self.end_snapshot(txn)
            return None
        return txn.incarnation.txns.commit_deferred(txn)

    def finish_deferred(self, pendings: list[PendingCommit | None]) -> None:
        """Complete deferred commits under one coalesced log force;
        each handle's outcome lands on its ``error`` field."""
        live = [p for p in pendings if p is not None]
        if live:
            live[0].manager.finish_deferred(live)
        self._maybe_checkpoint()

    def rollback(self, txn: Transaction) -> None:
        if txn.snapshot is not None:
            self.end_snapshot(txn)
            return
        txn.incarnation.txns.rollback(self, txn)

    # -- snapshot reads (lock-free, repro.mvcc) -----------------------------

    def begin_snapshot(self) -> Transaction:
        """Open a read-only snapshot transaction: it sees every commit
        with a timestamp at or below now, acquires **zero** record and
        next-key locks (latches only), and may not write."""
        incarnation = self._open
        if incarnation.mvcc is None:
            raise ConfigError(
                "snapshot reads need config.mvcc_enabled=True"
            )
        txn = incarnation.txns.begin()
        txn.snapshot = incarnation.mvcc.begin_snapshot()
        self.stats.incr("mvcc.snapshots_begun")
        return txn

    def end_snapshot(self, txn: Transaction) -> None:
        """Retire a snapshot transaction (advances the GC horizon).
        Idempotent; ``commit``/``rollback`` route here."""
        incarnation = txn.incarnation
        snap = txn.snapshot
        if snap is not None and incarnation.mvcc is not None:
            incarnation.mvcc.release(snap)
        txn.status = TxnStatus.ENDED
        incarnation.txns.forget(txn.txn_id)

    @contextmanager
    def snapshot(self) -> Iterator[Transaction]:
        """Scope a snapshot read::

            with db.snapshot() as txn:
                rows = list(db.scan(txn, "t", "by_id"))
        """
        txn = self.begin_snapshot()
        try:
            yield txn
        finally:
            self.end_snapshot(txn)

    def mvcc_gc(self, purge: bool = True) -> GcReport:
        """One pass of version GC, bounded by the oldest active
        snapshot.  ``purge=True`` also frees sweepable ghost slots with
        redo-only log records (recovery- and replication-safe)."""
        return run_mvcc_gc(self, purge=purge)

    def _start_gc_pacer(self) -> None:
        """Paced background GC (config.mvcc_gc_interval_seconds > 0),
        owned by the current incarnation: a crash stops it with the
        rest, and each restart starts a new one."""
        interval = self.config.mvcc_gc_interval_seconds
        if self.config.mvcc_enabled and interval > 0:
            self.incarnation.start_gc_pacer(self.mvcc_gc, interval)

    # internal hooks (redo replay) ------------------------------------------

    def mvcc_note_dead_raw(
        self, table_id: int, rid: RID, data: bytes, xmax: int
    ) -> None:
        """Redo of a heap delete (restart/standby/PITR): register the
        row's index keys as dead, from its raw bytes."""
        table = self._mvcc_table(table_id)
        if table is not None:
            self.versions.note_dead(table, rid, decode_row(data), xmax)

    def mvcc_note_dead_key(
        self, index_id: int, value: bytes, rid: RID, xmax: int
    ) -> None:
        """Redo of an index-key delete: register that one key as dead
        immediately.  The heap delete whose redo registers the full row
        comes later in the log; without this a standby read landing in
        between would find the key in neither the tree nor the store."""
        if self.mvcc is not None:
            self.versions.note_dead_key(index_id, value, rid, xmax)

    def mvcc_forget_raw(self, table_id: int, rid: RID, data: bytes) -> None:
        """Redo of a GC purge: the slot is gone, drop its dead keys."""
        table = self._mvcc_table(table_id)
        if table is not None:
            self.versions.forget(table, rid, decode_row(data))

    def _mvcc_table(self, table_id: int) -> Table | None:
        """The table whose dead keys a redo hook keeps (None without mvcc)."""
        return None if self.mvcc is None else self._table_by_id(table_id)

    def mvcc_ensure_dead_keys(self, table: Table) -> None:
        """Rebuild a table's dead keys from its ghost slots, if the
        current incarnation's store has not yet (after a restart)."""
        incarnation = self.incarnation
        incarnation.versions.ensure_table(table, incarnation)

    def _table_by_id(self, table_id: int) -> Table | None:
        for table in self.tables.values():
            if table.table_id == table_id:
                return table
        return None

    def savepoint(self, txn: Transaction, name: str) -> int:
        return txn.incarnation.txns.savepoint(txn, name)

    def rollback_to_savepoint(self, txn: Transaction, name: str) -> None:
        txn.incarnation.txns.rollback_to_savepoint(self, txn, name)

    # -- two-phase commit (this instance as a shard/participant) ---------------

    def prepare(self, txn: Transaction, gid: str) -> str:
        """Phase-1 vote for global transaction ``gid``: ``"yes"`` (the
        branch is PREPARED, locks held, decision pending) or
        ``"read-only"`` (the branch had no writes and is gone)."""
        vote = txn.incarnation.txns.prepare(txn, gid)
        self._maybe_checkpoint()
        return vote

    def commit_prepared(self, gid: str) -> None:
        txn = self.txns.find_prepared(gid)
        if txn is None:
            raise TransactionNotActiveError(f"no prepared transaction {gid!r}")
        self.txns.commit_prepared(txn)
        self._maybe_checkpoint()

    def rollback_prepared(self, gid: str) -> None:
        txn = self.txns.find_prepared(gid)
        if txn is None:
            raise TransactionNotActiveError(f"no prepared transaction {gid!r}")
        self.txns.rollback_prepared(self, txn)

    def indoubt_transactions(self) -> list[Transaction]:
        """PREPAREd branches awaiting the coordinator's decision."""
        return self.txns.prepared_transactions()

    # -- data operations ----------------------------------------------------------------

    def insert(self, txn: Transaction, table_name: str, row: Row) -> RID:
        return self.tables[table_name].insert(txn, row)

    def fetch(
        self,
        txn: Transaction,
        table_name: str,
        index_name: str,
        key: UserKey,
        isolation: str = "rr",
    ) -> Row | None:
        hit = self.tables[table_name].fetch_by_key(
            txn, index_name, key, isolation=isolation
        )
        return hit[1] if hit is not None else None

    def fetch_prefix(
        self, txn: Transaction, table_name: str, index_name: str, prefix: UserKey
    ) -> Row | None:
        """Partial-key Fetch (§1.1): first row whose key starts with
        ``prefix``."""
        hit = self.tables[table_name].fetch_by_prefix(txn, index_name, prefix)
        return hit[1] if hit is not None else None

    def scan_prefix(
        self, txn: Transaction, table_name: str, index_name: str, prefix: UserKey
    ) -> Iterator[tuple[RID, Row]]:
        return self.tables[table_name].scan_prefix(txn, index_name, prefix)

    def delete_by_key(
        self, txn: Transaction, table_name: str, index_name: str, key: UserKey
    ) -> Row:
        table = self.tables[table_name]
        hit = table.fetch_by_key(txn, index_name, key)
        if hit is None:
            raise KeyNotFoundError(
                f"key {key!r} not found via {table_name}.{index_name}"
            )
        rid, _ = hit
        return table.delete(txn, rid)

    def scan(
        self,
        txn: Transaction,
        table_name: str,
        index_name: str,
        low: UserKey | None = None,
        high: UserKey | None = None,
        low_comparison: str = ">=",
        high_comparison: str = "<=",
        isolation: str = "rr",
    ) -> Iterator[tuple[RID, Row]]:
        return self.tables[table_name].scan(
            txn,
            index_name,
            low=low,
            high=high,
            low_comparison=low_comparison,
            high_comparison=high_comparison,
            isolation=isolation,
        )

    # -- durability control -----------------------------------------------------------------

    def checkpoint(self) -> int:
        lsn = take_checkpoint(self)
        self._ckpt_watermark = self.log.records_appended
        return lsn

    def trim_log(self) -> int:
        """Reclaim the log prefix no recovery pass can need.

        The safe point is the minimum of: the master checkpoint's begin
        LSN (analysis starts there), every dirty page's recLSN (redo
        starts at their minimum), and every undecided transaction's
        first record — active ones (total rollback walks back to it)
        and prepared ones (a restart re-reads their PREPARE records,
        and the coordinator may yet decide abort).  Returns bytes
        reclaimed.  Call after a checkpoint for best effect.
        """
        from repro.wal.records import NULL_LSN

        incarnation = self.incarnation
        governor = incarnation.recovery
        if governor is not None and not governor.drained:
            # Mid-drain, an unverified torn page may still need its full
            # log history for a rebuild — refuse to discard anything.
            return 0
        candidates = [self.log.master_lsn or 1]
        dirty = incarnation.buffer.dirty_page_table()
        if dirty:
            candidates.append(min(dirty.values()))
        for txn in incarnation.txns.undecided_transactions():
            if txn.first_lsn != NULL_LSN:
                candidates.append(txn.first_lsn)
        return self.log.truncate_prefix(min(candidates))

    # -- replication / archiving ------------------------------------------------------

    def attach_archive(self, archive=None):
        """Attach a WAL archive: every byte :meth:`trim_log` would
        discard is archived first (the archive hook vetoes truncation
        on failure), preserving the full record history for
        point-in-time restore and page rebuilds."""
        from repro.replication.archive import WalArchive

        if archive is None:
            archive = WalArchive(stats=self.stats)
        self.archive = archive
        self.log.set_archiver(archive.append_chunk)
        return archive

    def enable_replication(
        self, sync: bool = False, sync_timeout_seconds: float = 5.0
    ):
        """Become a replication primary: serve snapshot/poll/ack
        requests (the server exposes them as ``repl_*`` ops) and, with
        ``sync=True``, hold commit acknowledgements until every
        attached standby has the commit record durable."""
        from repro.replication.manager import ReplicationManager

        self.replication = ReplicationManager(
            self, sync=sync, sync_timeout_seconds=sync_timeout_seconds
        )
        self.txns.commit_gate = self.replication.commit_gate
        return self.replication

    def history_records(self, from_lsn: int = 1) -> Iterator[LogRecord]:
        """Iterate the *full* record history from ``from_lsn``: archived
        segments for any truncated prefix, then the live log.  Without
        an archive this degrades to the live log alone (history before
        the truncation point is simply gone, as before)."""
        truncation = self.log.truncation_point
        if from_lsn < truncation and self.archive is not None:
            yield from self.archive.records(from_lsn, upto=truncation)
            from_lsn = truncation
        yield from self.log.records(max(from_lsn, truncation))

    def _maybe_checkpoint(self) -> None:
        """Fuzzy-checkpoint automatically every
        ``checkpoint_interval_records`` log records (0 disables)."""
        interval = self.config.checkpoint_interval_records
        if not interval:
            return
        written = self.log.records_appended
        if written - getattr(self, "_ckpt_watermark", 0) >= interval:
            self.checkpoint()

    def flush_all_pages(self) -> None:
        self.buffer.flush_all()

    def flush_page(self, page_id: int) -> None:
        self.buffer.flush_page(page_id)

    # -- lifecycle --------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self.incarnation is CLOSED

    @property
    def crashed(self) -> bool:
        """Crashed and not yet restarted (also while restart() runs)."""
        return not self.closed and self._open.retired

    def close(self) -> None:
        """Shut the engine down cleanly: roll back whatever is still
        active, force the log, flush every dirty page, take a final
        checkpoint, retire the incarnation and drop it, and turn group
        commit off.  Idempotent; a crashed instance skips the flush
        work (its volatile state is already gone).  Afterwards
        :meth:`begin` raises :class:`DatabaseClosedError`, and so does
        any handle from before — a transaction, an open scan."""
        incarnation = self.incarnation
        if incarnation is CLOSED:
            return
        incarnation.stop_gc_pacer()
        if not incarnation.retired:
            governor = incarnation.recovery
            if governor is not None and not governor.drained:
                # Finish recovery before flushing: an undrained page
                # must not be skipped by flush_all.  (Even if this
                # fails, the final checkpoint stays safe — undrained
                # recLSNs are still pre-seeded in the buffer DPT.)
                try:
                    if not governor.drain():
                        self.stats.incr("db.close_drain_failures")
                except Exception:  # noqa: BLE001,RPR005 - close() must finish; failure is counted
                    self.stats.incr("db.close_drain_failures")
            for txn in incarnation.txns.active_transactions():
                try:
                    self.rollback(txn)
                except Exception:  # noqa: BLE001,RPR005 - best-effort shutdown, counted below
                    # Best effort: a wedged transaction must not block
                    # shutdown of everything else.
                    self.stats.incr("db.close_rollback_errors")
            self.log.force()
            self.flush_all_pages()
            self.checkpoint()
        self._drop_incarnation()
        self.log.stop_group_commit()
        self.stats.incr("db.closes")

    def _drop_incarnation(self) -> None:
        """Retire the incarnation and let go of it (nothing volatile
        outlives a closed database but what callers' handles hold)."""
        self.incarnation.retire("database is closed")
        self.incarnation = self._open = CLOSED

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _on_fatal_io(self, exc: PermanentIOError, incarnation: Incarnation) -> None:
        """A disk I/O fault survived the retry budget in ``incarnation``:
        the cleanest thing a database can do is stop — crash now
        (losing only what a crash is allowed to lose) rather than limp
        on over a device that lies.  The original error propagates to
        the caller, who restarts when the storage is healthy again.

        That holds also for the incarnation a restart is still building
        (an instant restart's background thread runs before the
        database opens): the crash retires it, so the restart raises
        and the database stays crashed."""
        with self._panic_lock:
            if (
                incarnation is not self.incarnation  # closed, or restarted since
                or incarnation.retired
                or incarnation is self._panicked  # another thread is crashing it
            ):
                return
            self._panicked = incarnation
        self.stats.incr("db.io_panics")
        self.crash()

    def crash(self) -> None:
        """Simulate a system failure: all volatile state is lost.

        The log keeps only its forced prefix — plus, when a fault
        injector schedules WAL-tail loss, a partial suffix of the next
        unforced record (the torn tail restart must repair); the
        incarnation — buffer pool, lock table, latch table, transaction
        table, snapshot state — is retired in one step, and in-flight
        torn page writes land on the disk.

        A thread still mid-transaction, an open scan or a held pin
        raises ``DatabaseClosedError`` at its next fix, unfix, latch,
        lock request or log append — also after :meth:`restart`.
        Latch and lock waiters wake into it, committers parked for a
        group-commit flush get ``CommitNotDurableError`` (they were
        never acknowledged), and the paced GC thread is joined last."""
        incarnation = self.incarnation
        incarnation.retire(CRASHED)
        self.log.halt()
        keep_partial = 0
        if self.fault_injector is not None:
            keep_partial = self.fault_injector.tail_loss(self.log.unforced_bytes)
        self.log.crash(keep_partial_tail=keep_partial)
        self.disk.crash()
        self.failpoints.disarm_all(crash_paused=True)
        if self.replication is not None:
            # Wake synchronous commits parked for a standby ack (their
            # outcome is in-doubt).
            self.replication.primary_crashed()
        # Joined last: every wait a pass can be parked in (group-commit
        # flush, failpoint, lock, latch, commit gate) has been woken.
        incarnation.stop_gc_pacer()
        self.stats.incr("db.crashes")

    def restart(self) -> RestartReport:
        """ARIES restart recovery: the :meth:`instant_restart` procedure
        (log-tail repair, analysis, undo), then its drain — every dirty
        page replayed along its own log chain, every other on-disk page
        integrity-checked — run to completion on this thread before the
        database reopens.  The drain ends with a checkpoint.

        Restart builds a new incarnation: handles from before it (a
        transaction, an open scan, a pin) keep raising
        ``DatabaseClosedError``, and a transaction begun now shares
        nothing with one from before, even when it reuses its id.
        ``begin()`` keeps raising ``DatabaseClosedError`` until restart
        has finished; a restart that raises leaves the database crashed."""
        report = self._restart(background=False, drain=True)
        self.stats.incr("recovery.restarts")
        return report

    def instant_restart(
        self, redo_workers: int = 1, background: bool = True
    ) -> RestartReport:
        """Serve-while-recovering restart: analysis and loser undo run
        up front, then the database opens; redo happens on first touch
        of each page and (with ``background=True``) in one background
        thread behind the foreground.  ``self.recovery`` exposes the
        governor until the next crash; ``recovery_state`` flips from
        ``"recovering"`` to ``"steady"`` when the drain finishes."""
        # Accepted only as 1: the bench ``restart`` workload still passes it.
        if redo_workers != 1:
            raise ConfigError(f"redo_workers must be 1, got {redo_workers}")
        report = self._restart(background, drain=False)
        self.stats.incr("recovery.instant_restarts")
        return report

    def _restart(self, background: bool, drain: bool) -> RestartReport:
        self.log.resume()
        self._next_incarnation()
        try:
            self.failpoints.hit("restart.before_analysis")
            report = run_instant_restart(self, background=background)
            if drain:
                if not report.governor.drain():
                    raise RecoveryError("restart was aborted before its drain finished")
                self.incarnation.recovery = report.governor = None
            self._rebuild_mvcc_state()
        except BaseException:
            # A restart that fails leaves the database crashed.
            self.incarnation.retire(CRASHED)
            raise
        if self.incarnation.retired:
            # A fatal I/O fault crashed the incarnation being built.
            raise RecoveryError("a permanent I/O fault crashed the restart")
        # Only now may transactions begin: before analysis sets the
        # txn-id floor, the new manager would hand out ids the log holds.
        self._open = self.incarnation
        self._start_gc_pacer()
        return report

    def _next_incarnation(self) -> None:
        """Retire the current incarnation (a database opened on a
        restored image has a live one) and build the next, empty."""
        incarnation = self.incarnation
        incarnation.retire(CRASHED)
        incarnation.stop_gc_pacer()
        self.incarnation = Incarnation(self)

    @property
    def recovery_state(self) -> str:
        """``"recovering"`` while an instant restart is draining,
        ``"steady"`` otherwise (also reported over the wire by the
        server's ``status`` op)."""
        governor = self.recovery
        if governor is not None and not governor.drained:
            return "recovering"
        return "steady"

    # -- post-restart reconciliation -------------------------------------------------------

    def note_heap_page(self, table_id: int, page_id: int) -> None:
        """Register a heap page with its table's in-memory page view
        (the standby's replay loop maintains views live so an instant
        promotion need not rediscover them)."""
        table = self._table_by_id(table_id)
        if table is not None and page_id not in table.heap.page_ids:
            table.heap.page_ids.append(page_id)

    def _rebuild_mvcc_state(self) -> None:
        """Reinstall snapshot visibility after a restart.

        With no undecided transactions every logged transaction is
        resolved, so the watermark is simply ``next_txn_id - 1`` and no
        commit table is needed.  Otherwise the watermark sits below the
        oldest undecided id, and a header-only log scan collects the
        commit LSNs of the committed transactions above it (an in-doubt
        PREPARE stays invisible until its decision arrives and
        ``commit_prepared`` timestamps it)."""
        if self.mvcc is None:
            return
        undecided = self.txns.undecided_transactions()
        high_ts = self.log.end_lsn
        if not undecided:
            self.mvcc.reset(
                watermark=self.txns.next_txn_id - 1, high_ts=high_ts
            )
        else:
            watermark = min(t.txn_id for t in undecided) - 1
            commits: dict[int, int] = {}
            # Commits of higher-id transactions can predate the oldest
            # undecided one's first record, so scan the full retained
            # history (archive + live log when an archive is attached).
            if self.archive is not None and self.log.truncation_point > 1:
                for record in self.history_records():
                    if (
                        record.kind is RecordKind.COMMIT
                        and record.txn_id > watermark
                    ):
                        commits[record.txn_id] = record.lsn
            else:
                for header in self.log.record_headers():
                    if (
                        header.kind is RecordKind.COMMIT
                        and header.txn_id > watermark
                    ):
                        commits[header.txn_id] = header.lsn
            self.mvcc.reset(
                watermark=watermark, commit_ts=commits, high_ts=high_ts
            )
        self.stats.incr("mvcc.state_rebuilds")

    # -- diagnostics ----------------------------------------------------------------------

    def verify_indexes(self) -> dict[str, list[str]]:
        """Structure-check every index; maps index name → violations."""
        problems: dict[str, list[str]] = {}
        for table in self.tables.values():
            for tree in table.indexes.values():
                found = tree.check_structure()
                if found:
                    problems[tree.name] = found
        return problems

    def log_records(self, from_lsn: int = 1) -> list[LogRecord]:
        return list(self.log.records(from_lsn))
