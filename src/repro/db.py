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

Crash simulation keeps the *catalog* (table/index names, root page
ids) in memory: the paper is about index management, not catalog
management, and a real system would recover the catalog from its own
(also ARIES-protected) tables.  Everything that matters to the
experiments — page contents, log contents, transaction state — lives
in the simulated durable stores and genuinely dies with ``crash()``.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from typing import Iterator

from repro.common.config import DEFAULT_CONFIG, DatabaseConfig
from repro.common.errors import (
    ConfigError,
    DatabaseClosedError,
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
from repro.btree.protocol import LockingProtocol, make_protocol
from repro.btree.recovery import BTreeResourceManager
from repro.btree.tree import BTree
from repro.data.heap import HeapResourceManager
from repro.data.table import Row, Table
from repro.locks.manager import LockManager
from repro.locks.modes import data_page_lock_name, record_lock_name
from repro.mvcc.gc import GcReport, run_mvcc_gc
from repro.mvcc.snapshot import SnapshotManager
from repro.mvcc.store import VersionStore
from repro.recovery.checkpoint import take_checkpoint
from repro.recovery.instant import run_instant_restart
from repro.recovery.restart import RestartReport
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.faults import FaultInjector
from repro.storage.latch import LatchManager, get_latch_monitor
from repro.storage.page import Page
from repro.txn.manager import PendingCommit, TransactionManager
from repro.txn.rm import ResourceManagerRegistry
from repro.txn.transaction import Transaction
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
        self.stats = StatsRegistry(enabled=config.stats_enabled)
        self.failpoints = FailpointRegistry()
        self.fault_injector = fault_injector
        if fault_injector is not None:
            fault_injector.attach_stats(self.stats)
        self.disk = DiskManager(config.page_size, self.stats, fault_injector)
        self.log = LogManager(self.stats, self.failpoints)
        self.log.flush_latency_seconds = config.log_flush_latency_seconds
        if config.group_commit:
            self.log.start_group_commit(
                config.group_commit_max_batch,
                config.group_commit_max_wait_seconds,
            )
        self.buffer = BufferPool(
            self.disk,
            self.log,
            config.buffer_pool_pages,
            self.stats,
            io_retry_limit=config.io_retry_limit,
            io_retry_backoff_seconds=config.io_retry_backoff_seconds,
        )
        self.buffer.on_fatal_io = self._on_fatal_io
        self.latches = self._make_latches()
        self.locks = LockManager(
            self.stats,
            timeout=config.lock_timeout_seconds,
            deadlock_detection=config.deadlock_detection,
        )
        self.rm_registry = ResourceManagerRegistry()
        self.rm_registry.register(RM_HEAP, HeapResourceManager())
        self.rm_registry.register(RM_BTREE, BTreeResourceManager())
        self.txns = TransactionManager(self.log, self.locks, self.rm_registry, self.stats)
        #: Snapshot-read machinery (None when config.mvcc_enabled=False).
        self.mvcc: SnapshotManager | None = (
            SnapshotManager() if config.mvcc_enabled else None
        )
        #: Dead-key side store (always constructed; no-op hooks without mvcc).
        self.versions = VersionStore()
        self._wire_mvcc()
        self.tables: dict[str, Table] = {}
        self._indexes_by_id: dict[int, BTree] = {}
        self._table_ids = itertools.count(1)
        self._index_ids = itertools.count(1)
        #: WAL archive receiving truncated prefixes (attach_archive).
        self.archive = None
        #: Primary-side replication state (enable_replication).
        self.replication = None
        #: Live RecoveryGovernor while an instant restart is draining
        #: (stays set, drained, until the next crash).
        self.recovery = None
        self._crashed = False
        self._closed = False
        #: Paced background GC (config.mvcc_gc_interval_seconds > 0).
        self._gc_stop: threading.Event | None = None
        self._gc_thread: threading.Thread | None = None
        if config.mvcc_enabled and config.mvcc_gc_interval_seconds > 0:
            self._start_gc_pacer()

    def _make_latches(self) -> LatchManager:
        debug_max = 2 if self.config.debug_latch_checks else None
        return LatchManager(
            self.stats,
            debug_max_page_latches=debug_max,
            timeout=self.config.latch_timeout_seconds,
        )

    # -- schema -------------------------------------------------------------------

    def create_table(self, name: str) -> Table:
        if name in self.tables:
            raise ConfigError(f"table {name!r} already exists")
        table = Table(self, next(self._table_ids), name)
        self.tables[name] = table
        return table

    def table(self, name: str) -> Table:
        return self.tables[name]

    def create_index(
        self,
        table_name: str,
        index_name: str,
        column: str,
        unique: bool = False,
        protocol: LockingProtocol | str | None = None,
    ) -> BTree:
        """Create a B+-tree index on ``column``; backfills existing rows.

        ``protocol`` overrides the config-level locking protocol for
        this index (used by the baseline-comparison experiments)."""
        table = self.tables[table_name]
        if index_name in table.indexes:
            raise ConfigError(f"index {index_name!r} already exists")
        if protocol is None:
            protocol = make_protocol(self.config.index_locking)
        elif isinstance(protocol, str):
            protocol = make_protocol(protocol)

        index_id = next(self._index_ids)
        txn = self.begin()
        root_id = self.disk.allocate_page_id()
        root = IndexPage(root_id, index_id, level=0)
        self.buffer.fix_new(root)  # noqa: RPR001 - unfixed below once the root is formatted and logged
        record = update_record(
            txn.txn_id,
            RM_BTREE,
            "page_format",
            root_id,
            {"page": root.to_payload()},
            undoable=False,
        )
        lsn = self.txns.log_for(txn, record)
        root.page_lsn = lsn
        self.buffer.mark_dirty(root_id, lsn)
        self.buffer.unfix(root_id)

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
        tree.smo_begin(txn)  # exclude SMOs while we dismantle
        try:
            page_ids: list[int] = []

            def collect(page_id: int) -> None:
                page = self.buffer.fix(page_id)
                try:
                    children = (
                        list(page.child_ids) if isinstance(page, IndexPage) else []
                    )
                finally:
                    self.buffer.unfix(page_id)
                page_ids.append(page_id)
                for child in children:
                    collect(child)

            collect(tree.root_page_id)
            for page_id in page_ids:
                page = self.buffer.fix(page_id)
                self.latches.page_latch(page_id).acquire("X")
                try:
                    record = update_record(
                        txn.txn_id,
                        RM_BTREE,
                        "set_page",
                        page_id,
                        {
                            "before": page.to_payload(),
                            "after": freed_payload(page_id),
                        },
                    )
                    lsn = self.txns.log_for(txn, record)
                    page.load_payload(freed_payload(page_id))
                    page.page_lsn = lsn
                    self.buffer.mark_dirty(page_id, lsn)
                finally:
                    self.latches.page_latch(page_id).release()
                    self.buffer.unfix(page_id)
        finally:
            tree.smo_end(txn)
        del table.indexes[index_name]
        del self._indexes_by_id[tree.index_id]
        self.commit(txn)
        self.stats.incr("db.indexes_dropped")

    def index_by_id(self, index_id: int) -> BTree:
        return self._indexes_by_id[index_id]

    def heap_lock_name(self, table_id: int, rid: RID) -> tuple:
        """Data-only lock name for a record (§2.1: the record, or the
        data page id that is part of the record id)."""
        if self.config.lock_granularity == "page":
            return data_page_lock_name(table_id, rid.page_id)
        return record_lock_name(table_id, rid)

    # -- transactions ----------------------------------------------------------------

    def begin(self) -> Transaction:
        if self._closed:
            raise DatabaseClosedError("database is closed")
        if self._crashed:
            # Admitting a transaction before restart() rebuilds the
            # txn-id space would hand out pre-crash ids (the fresh
            # manager counts from 1 until analysis bumps it) — stowaway
            # ids corrupt the next recovery's analysis pass.
            raise DatabaseClosedError("database crashed; restart() required")
        return self.txns.begin()

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
        self.txns.commit(txn)
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
        return self.txns.commit_deferred(txn)

    def finish_deferred(self, pendings: list[PendingCommit | None]) -> None:
        """Complete deferred commits under one coalesced log force;
        each handle's outcome lands on its ``error`` field."""
        self.txns.finish_deferred([p for p in pendings if p is not None])
        self._maybe_checkpoint()

    def rollback(self, txn: Transaction) -> None:
        if txn.snapshot is not None:
            self.end_snapshot(txn)
            return
        self.txns.rollback(self, txn)

    # -- snapshot reads (lock-free, repro.mvcc) -----------------------------

    def begin_snapshot(self) -> Transaction:
        """Open a read-only snapshot transaction: it sees every commit
        with a timestamp at or below now, acquires **zero** record and
        next-key locks (latches only), and may not write."""
        if self._closed:
            raise DatabaseClosedError("database is closed")
        if self._crashed:
            raise DatabaseClosedError("database crashed; restart() required")
        if self.mvcc is None:
            raise ConfigError(
                "snapshot reads need config.mvcc_enabled=True"
            )
        txn = self.txns.begin()
        txn.snapshot = self.mvcc.begin_snapshot()
        self.stats.incr("mvcc.snapshots_begun")
        return txn

    def end_snapshot(self, txn: Transaction) -> None:
        """Retire a snapshot transaction (advances the GC horizon).
        Idempotent; ``commit``/``rollback`` route here."""
        snap = txn.snapshot
        if snap is not None and self.mvcc is not None:
            self.mvcc.release(snap)
        from repro.txn.transaction import TxnStatus

        txn.status = TxnStatus.ENDED
        self.txns.forget(txn.txn_id)

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

    # .. paced background GC (satellite of the analysis-suite PR) ..........

    def _start_gc_pacer(self) -> None:
        self._gc_stop = threading.Event()
        self._gc_thread = threading.Thread(
            target=self._gc_pacer_loop, name="mvcc-gc-pacer", daemon=True
        )
        self._gc_thread.start()

    def _gc_pacer_loop(self) -> None:
        stop = self._gc_stop
        interval = self.config.mvcc_gc_interval_seconds
        while not stop.wait(interval):
            if self._crashed or self._closed:
                continue
            try:
                self.mvcc_gc()
                self.stats.incr("mvcc.gc_paced_passes")
            except Exception:  # noqa: BLE001,RPR005 - GC races crashes; the pass is skipped and counted
                self.stats.incr("mvcc.gc_paced_errors")

    def _stop_gc_pacer(self) -> None:
        if self._gc_stop is not None:
            self._gc_stop.set()
        if self._gc_thread is not None:
            self._gc_thread.join(timeout=5.0)
            self._gc_thread = None

    # internal hooks (write path + redo replay) ----------------------------

    def _wire_mvcc(self) -> None:
        if self.mvcc is not None:
            self.txns.on_commit = self.mvcc.note_commit

    def mvcc_note_dead(self, table: Table, rid: RID, row: Row, xmax: int) -> None:
        """Forward delete path: register the row's index keys as dead."""
        if self.mvcc is None:
            return
        self.versions.note_dead(table, rid, row, xmax)

    def mvcc_note_dead_raw(
        self, table_id: int, rid: RID, data: bytes, xmax: int
    ) -> None:
        """Redo path (restart/standby/PITR): same, from raw row bytes."""
        if self.mvcc is None:
            return
        table = self._table_by_id(table_id)
        if table is None:
            return
        from repro.data.table import decode_row

        self.versions.note_dead(table, rid, decode_row(data), xmax)

    def mvcc_note_dead_key(
        self, index_id: int, value: bytes, rid: RID, xmax: int
    ) -> None:
        """Redo of an index-key delete: register that one key as dead
        immediately.  The heap delete whose redo registers the full row
        comes later in the log; without this a standby read landing in
        between would find the key in neither the tree nor the store."""
        if self.mvcc is None:
            return
        self.versions.note_dead_key(index_id, value, rid, xmax)

    def mvcc_forget_raw(self, table_id: int, rid: RID, data: bytes) -> None:
        """Redo of a GC purge: the slot is gone, drop its dead keys."""
        if self.mvcc is None:
            return
        table = self._table_by_id(table_id)
        if table is None:
            return
        from repro.data.table import decode_row

        self.versions.forget(table, rid, decode_row(data))

    def mvcc_ensure_dead_keys(self, table: Table) -> None:
        """Lazily rebuild a table's dead keys from its ghost slots
        after the store was invalidated by a crash."""
        self.versions.ensure_table(table)

    def _table_by_id(self, table_id: int) -> Table | None:
        for table in self.tables.values():
            if table.table_id == table_id:
                return table
        return None

    def savepoint(self, txn: Transaction, name: str) -> int:
        return self.txns.savepoint(txn, name)

    def rollback_to_savepoint(self, txn: Transaction, name: str) -> None:
        self.txns.rollback_to_savepoint(self, txn, name)

    # -- two-phase commit (this instance as a shard/participant) ---------------

    def prepare(self, txn: Transaction, gid: str) -> str:
        """Phase-1 vote for global transaction ``gid``: ``"yes"`` (the
        branch is PREPARED, locks held, decision pending) or
        ``"read-only"`` (the branch had no writes and is gone)."""
        vote = self.txns.prepare(txn, gid)
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

        governor = self.recovery
        if governor is not None and not governor.drained:
            # Mid-drain, an unverified torn page may still need its full
            # log history for a rebuild — refuse to discard anything.
            return 0
        candidates = [self.log.master_lsn or 1]
        dirty = self.buffer.dirty_page_table()
        if dirty:
            candidates.append(min(dirty.values()))
        for txn in self.txns.undecided_transactions():
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
        return self._closed

    def close(self) -> None:
        """Shut the engine down cleanly: roll back whatever is still
        active, force the log, flush every dirty page, take a final
        checkpoint, and turn group commit off.  Idempotent; a
        crashed instance skips the flush work (its volatile state is
        already gone).  After ``close()``, :meth:`begin` raises
        :class:`DatabaseClosedError`."""
        if self._closed:
            return
        self._stop_gc_pacer()
        if not self._crashed:
            governor = self.recovery
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
            for txn in self.txns.active_transactions():
                try:
                    self.rollback(txn)
                except Exception:  # noqa: BLE001,RPR005 - best-effort shutdown, counted below
                    # Best effort: a wedged transaction must not block
                    # shutdown of everything else.
                    self.stats.incr("db.close_rollback_errors")
            self.log.force()
            self.flush_all_pages()
            self.checkpoint()
        self.log.stop_group_commit()
        self._closed = True
        self.stats.incr("db.closes")

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _on_fatal_io(self, exc: PermanentIOError) -> None:
        """A disk I/O fault survived the retry budget: the cleanest
        thing a database can do is stop — crash now (losing only what
        a crash is allowed to lose) rather than limp on over a device
        that lies.  The original error propagates to the caller, who
        restarts when the storage is healthy again."""
        if self._crashed:
            return
        self.stats.incr("db.io_panics")
        self.crash()

    def crash(self) -> None:
        """Simulate a system failure: all volatile state is lost.

        The log keeps only its forced prefix — plus, when a fault
        injector schedules WAL-tail loss, a partial suffix of the next
        unforced record (the torn tail restart must repair); the buffer
        pool, lock table, latch table, and transaction table vanish,
        and in-flight torn page writes land on the disk.

        The log is *halted* until :meth:`restart`: server threads still
        mid-transaction when the crash lands fail fast instead of
        writing stale records into the post-crash log, and committers
        parked for a group-commit flush are woken with
        ``CommitNotDurableError`` (they were never acknowledged)."""
        self.log.halt()
        governor = self.recovery
        if governor is not None:
            # Stop in-flight instant-restart workers before tearing
            # down the stores they are replaying into.
            governor.abort()
            self.recovery = None
        keep_partial = 0
        if self.fault_injector is not None:
            keep_partial = self.fault_injector.tail_loss(self.log.unforced_bytes)
        self.log.crash(keep_partial_tail=keep_partial)
        self.disk.crash()
        self.buffer.crash()
        self.latches = self._make_latches()
        monitor = get_latch_monitor()
        if monitor is not None:
            # Releases for latches held at the crash instant will never
            # arrive (the table above was replaced wholesale).
            monitor.reset_all_held()
        self.locks = LockManager(
            self.stats,
            timeout=self.config.lock_timeout_seconds,
            deadlock_detection=self.config.deadlock_detection,
        )
        # Retire the old manager *before* replacing it: a thread parked
        # inside its commit when the crash landed must not append stale
        # COMMIT/END records once restart resumes the shared log.
        self.txns.halt()
        self.txns = TransactionManager(self.log, self.locks, self.rm_registry, self.stats)
        if self.mvcc is not None:
            # Snapshots and the commit table were volatile; restart
            # rebuilds visibility state from the log.
            self.mvcc = SnapshotManager()
        self.versions.invalidate()
        self._wire_mvcc()
        self.failpoints.disarm_all(crash_paused=True)
        if self.replication is not None:
            # Wake synchronous commits parked for a standby ack (their
            # outcome is in-doubt) and keep the gate wired into the
            # fresh transaction manager.
            self.replication.primary_crashed()
            self.txns.commit_gate = self.replication.commit_gate
        self._crashed = True
        self.stats.incr("db.crashes")

    def restart(self) -> RestartReport:
        """ARIES restart recovery: the :meth:`instant_restart` procedure
        (log-tail repair, analysis, undo), then its drain — every dirty
        page replayed along its own log chain, every other on-disk page
        integrity-checked — run to completion on this thread before the
        database reopens.  The drain ends with a checkpoint."""
        report = self._restart(redo_workers=1, background=False, drain=True)
        self.stats.incr("recovery.restarts")
        return report

    def instant_restart(
        self, redo_workers: int = 4, background: bool = True
    ) -> RestartReport:
        """Serve-while-recovering restart: analysis and loser undo run
        up front, then the database opens; redo happens on first touch
        of each page and (with ``background=True``) in a bounded worker
        pool behind the foreground.  ``self.recovery`` exposes the
        governor until the next crash; ``recovery_state`` flips from
        ``"recovering"`` to ``"steady"`` when the drain finishes."""
        report = self._restart(redo_workers, background, drain=False)
        self.stats.incr("recovery.instant_restarts")
        return report

    def _restart(
        self, redo_workers: int, background: bool, drain: bool
    ) -> RestartReport:
        self.log.resume()
        self._reset_latches_for_restart()
        report = run_instant_restart(
            self, redo_workers=redo_workers, background=background
        )
        if drain:
            if not report.governor.drain():
                raise RecoveryError("restart was aborted before its drain finished")
            self.recovery = report.governor = None
        self._rebuild_mvcc_state()
        if self.replication is not None:
            self.replication.primary_restarted()
        self._crashed = False
        return report

    def _reset_latches_for_restart(self) -> None:
        """Fresh latch and lock tables at restart entry.

        ``crash()`` already swaps both managers, but a request thread
        still unwinding at that instant can re-acquire in the *fresh*
        ones before it dies (its exception path cannot release: a
        rollback against the halted log fails mid-way).  Restart runs
        quiesced — the server is aborted, no application thread is
        live — so empty tables are always the correct state here."""
        self.latches = self._make_latches()
        monitor = get_latch_monitor()
        if monitor is not None:
            monitor.reset_all_held()
        self.locks = LockManager(
            self.stats,
            timeout=self.config.lock_timeout_seconds,
            deadlock_detection=self.config.deadlock_detection,
        )
        self.txns._locks = self.locks

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
        for table in self.tables.values():
            if table.table_id == table_id:
                if page_id not in table.heap.page_ids:
                    table.heap.page_ids.append(page_id)
                return

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
        self.versions.invalidate()
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

    def log_kinds(self, from_lsn: int = 1) -> list[str]:
        """Compact log shape for the Figure 9/10 assertions."""
        out = []
        for record in self.log.records(from_lsn):
            if record.kind is RecordKind.UPDATE:
                out.append(f"{record.rm}.{record.op}")
            elif record.kind is RecordKind.CLR:
                out.append(f"clr:{record.op}")
            else:
                out.append(record.kind.value)
        return out
