"""One incarnation: everything a crash destroys, as one object.

ARIES restart assumes a failure wipes the volatile state and rebuilds
it from the log alone (PAPER.md §1).  An :class:`Incarnation` owns that
state: buffer pool, latch and lock tables, transaction manager,
snapshot manager, version store, restart governor and GC thread.  Open
and every ``restart()`` build one; ``crash()`` and ``close()`` retire it
in one step.  An operation takes its incarnation once, at its start
(``Transaction.incarnation``), so a thread that outlived it raises
``DatabaseClosedError`` at its next touch (see DESIGN.md, "One
incarnation per crash") instead of acting on the next one.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable, NoReturn

from repro.common.errors import DatabaseClosedError
from repro.locks.manager import LockManager
from repro.mvcc.snapshot import SnapshotManager
from repro.mvcc.store import VersionStore
from repro.storage.buffer import BufferPool
from repro.storage.latch import LatchManager, get_latch_monitor
from repro.txn.manager import TransactionManager

if TYPE_CHECKING:  # pragma: no cover
    from repro.db import Database
    from repro.storage.page import Page
    from repro.txn.transaction import Transaction
    from repro.wal.records import LogRecord


class Retired:
    """Stands in for every part of a retired incarnation: any use — an
    attribute, ``in``, ``len``, truth, indexing — raises
    :class:`DatabaseClosedError`, so no hot path checks a flag."""

    __slots__ = ("reason",)

    def __init__(self, reason: str) -> None:
        self.reason = reason

    def _refuse(self, *args: object) -> NoReturn:
        raise DatabaseClosedError(self.reason)

    __getattr__ = __bool__ = __len__ = __iter__ = __contains__ = _refuse
    __getitem__ = __setitem__ = __delitem__ = _refuse


#: Why a crashed incarnation refuses.
CRASHED = "database crashed; restart() required"

#: What a closed database holds instead of an incarnation.
CLOSED = Retired("database is closed")

#: The handles :meth:`Incarnation.retire` swaps for the stand-in: every
#: part an operation reaches, and the durable stores it reaches them by.
_HANDLES = (
    "config", "stats", "disk", "log", "failpoints",
    "buffer", "latches", "locks", "txns", "mvcc", "versions",
)


class Incarnation:
    """The volatile state of one database between two crashes."""

    def __init__(self, db: "Database") -> None:
        config = db.config
        stats = db.stats
        # Handles to what survives, so an operation needs nothing else.
        self.config = config
        self.stats = stats
        self.disk = db.disk
        self.log = db.log
        self.failpoints = db.failpoints
        # What dies with this incarnation.
        self.buffer = BufferPool(db.disk, db.log, config.buffer_pool_pages, stats)
        self.buffer.on_fatal_io = db._on_fatal_io
        self.latches = LatchManager(stats, timeout=config.latch_timeout_seconds)
        self.locks = LockManager(stats, timeout=config.lock_timeout_seconds)
        self.txns = TransactionManager(db.log, self.locks, db.rm_registry, stats, self)
        #: Snapshot-read machinery (None when config.mvcc_enabled=False).
        self.mvcc: SnapshotManager | None = None
        if config.mvcc_enabled:
            self.mvcc = SnapshotManager()
            self.txns.on_commit = self.mvcc.note_commit
        if db.replication is not None:
            self.txns.commit_gate = db.replication.commit_gate
        #: Dead-key side store (always built; no-op hooks without mvcc).
        self.versions = VersionStore()
        #: The RecoveryGovernor while an instant restart is draining
        #: (stays set, drained, until this incarnation is retired).
        self.recovery = None
        self.retired = False
        #: The paced MVCC GC thread (config.mvcc_gc_interval_seconds > 0).
        self.gc_pacer: threading.Thread | None = None
        self._gc_stop = threading.Event()

    def log_page_change(
        self,
        txn: "Transaction",
        page: "Page",
        record: "LogRecord",
        apply: Callable[[], object] | None = None,
    ) -> int:
        """The one way a page record reaches the log: link ``record`` to
        the page's PageLSN, append it, run ``apply`` (if the caller has
        not changed the page already), stamp the PageLSN and mark the
        page dirty; returns the LSN.  The caller holds the page's X
        latch (or owns a page no one else can see), and a page dirty at
        a crash is recovered before any fix returns it, so the PageLSN
        read here is the page's newest record, across every restart."""
        record.prev_page_lsn = page.page_lsn
        self.buffer.note_logging(page.page_id, record)
        lsn = self.txns.log_for(txn, record)
        if apply is not None:
            apply()
        page.page_lsn = lsn
        self.buffer.mark_dirty(page.page_id, lsn)
        return lsn

    # -- the paced GC thread --------------------------------------------------

    def start_gc_pacer(self, run_pass: Callable[[], object], interval: float) -> None:
        stop = self._gc_stop
        stats = self.stats

        def pace() -> None:
            while not stop.wait(interval):
                try:
                    run_pass()
                    stats.incr("mvcc.gc_paced_passes")
                except Exception:  # noqa: BLE001,RPR005 - GC races crashes; the pass is skipped and counted
                    stats.incr("mvcc.gc_paced_errors")

        self.gc_pacer = threading.Thread(target=pace, name="mvcc-gc-pacer", daemon=True)
        self.gc_pacer.start()

    def stop_gc_pacer(self) -> None:
        """Stop the pacer and wait for a pass in flight to finish (or
        fail).  A pass that hit a fatal I/O fault crashes the database
        from the pacer thread itself; it exits after that pass."""
        self._gc_stop.set()
        thread = self.gc_pacer
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=5.0)

    # -- retirement -----------------------------------------------------------

    def retire(self, reason: str) -> None:
        """End this incarnation in one step (idempotent): stop the GC
        pacer and an instant restart's redo workers, swap the tables of
        the buffer pool, latch table and lock table for a
        :class:`Retired` that raises ``reason`` (waking every waiter
        into it), then swap this object's handles for it too.  The
        latch monitor forgets every latch held here."""
        if self.retired:
            return
        self.retired = True
        self._gc_stop.set()
        governor = self.recovery
        if governor is not None:
            governor.abort()
            self.recovery = None
        retired = Retired(reason)
        self.buffer.retire(retired)
        self.latches.retire(retired)
        self.locks.retire(retired)
        monitor = get_latch_monitor()
        if monitor is not None:
            monitor.reset_all_held()
        for name in _HANDLES:
            setattr(self, name, retired)
