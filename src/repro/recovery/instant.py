"""The restart procedure: recovery as a per-page property (Sauer &
Härder; Lomet et al.).

Both ``Database.restart()`` and ``Database.instant_restart()`` run
:func:`run_instant_restart`; they differ only in who drains the
not-yet-recovered pages and when the database opens.  ``restart()``
drains them on the calling thread (:func:`~repro.recovery.redo.run_redo`
for the dirty pages, then :func:`~repro.recovery.media.run_scrub` for
the rest) before it returns; ``instant_restart()`` opens at once and
drains on demand and in one background thread.  The steps:

1. **Analysis** — one header-only scan from the last checkpoint, so
   its cost is bounded by the checkpoint interval.  It also
   reconstructs the tail of each dirty page's *per-page log chain*:
   every page record carries ``prev_page_lsn``, the PageLSN its page
   had when the record was logged — the page's previous record, across
   any number of restarts — so one page's redo work is reachable by
   walking backwards from its chain tail without ever scanning the
   (possibly much longer) redo span.  No page is read.  Analysis also
   yields the transaction-id floor and each table's new heap pages, so
   nothing scans the whole log or fixes every page.
2. **Undo** of loser transactions runs eagerly, before the database
   opens: the second and last log pass, backwards along the losers'
   chains.  Its cost is proportional to the in-flight work at crash
   time, not to the log, and running it up front means no new
   transaction can ever observe uncommitted pre-crash state (zero
   stale reads).
3. Every page fix now passes through a :class:`RecoveryGovernor` hook
   on the buffer pool: the first touch of an on-disk page CRC-checks
   it and rebuilds it from its full log history if a torn write
   damaged it (the scrub), and the first touch of a dirty page then
   replays exactly that page's chain onto it (single-page recovery,
   :func:`~repro.recovery.redo.replay_page`).
4. The rest is **drained**: on the caller's thread for ``restart()``,
   or — once an instant restart has opened the database — by **one
   background thread** that walks the remaining pages behind the
   foreground, in the order :meth:`RecoveryGovernor.drain` uses.
   Under the interpreter lock more threads drain no faster and slow
   the foreground (DESIGN.md).  Per-page locks make on-demand and
   background recovery of the same page mutually exclusive; the ARIES
   page-LSN test makes any replay idempotent regardless.
5. When the last page drains, the governor takes the deferred restart
   checkpoint and uninstalls itself — the database is ``steady``.

Safety hinges on one invariant: **the buffer's dirty-page table is
pre-seeded** with every analysis DPT entry before the database opens.
A fuzzy checkpoint taken while still recovering (auto-checkpoints fire
on commit traffic!) therefore carries the recLSNs of every unrecovered
page, so a second crash mid-drain loses nothing: the next restart's
analysis re-derives the same pending set.  Log truncation is refused
until the drain finishes (torn pages may need full history to
rebuild).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro.common.errors import (
    CorruptPageError,
    DatabaseClosedError,
    LogHaltedError,
    PageNotFoundError,
    RecoveryTimeoutError,
)
from repro.recovery.analysis import AnalysisResult, run_analysis
from repro.recovery.checkpoint import take_checkpoint
from repro.recovery.media import ScrubResult, rebuild_page_from_log, run_scrub
from repro.recovery.redo import RedoResult, replay_page, run_redo
from repro.recovery.restart import RestartReport, reacquire_prepared_locks
from repro.recovery.undo import run_undo
from repro.wal.records import NULL_LSN, LogRecord

#: How long a page fix waits for another thread's in-flight on-demand
#: recovery of the same page before giving up with
#: :class:`~repro.common.errors.RecoveryTimeoutError` (and how long
#: :meth:`RecoveryGovernor.drain` waits for the drained state).
ONDEMAND_RECOVERY_TIMEOUT_SECONDS = 30.0

if TYPE_CHECKING:  # pragma: no cover
    from repro.db import Database


class RecoveryGovernor:
    """Owns the not-yet-recovered page set of one restart.

    Thread model: any number of foreground threads (via the buffer
    pool's ``recovery_hook``) plus one background thread call
    :meth:`ensure_recovered` concurrently.  A per-page lock
    serializes recovery of one page; the governor's own mutex only
    guards the bookkeeping sets.  Recovery internals re-enter the
    buffer pool to fix pages — a thread-local flag makes the hook a
    no-op on those inner fixes (recovery of page P touches only P, or
    rebuilds P from history, never another unrecovered page).
    """

    def __init__(self, ctx: "Database", analysis: AnalysisResult) -> None:
        self.ctx = ctx
        self.analysis = analysis
        #: Progressively updated; final once drained.
        self.redo = RedoResult()
        self.scrub = ScrubResult()
        self._mutex = threading.Lock()
        self._page_locks: dict[int, threading.Lock] = {}
        #: Pages with redo work outstanding.
        self._pending: set[int] = set()
        #: On-disk pages not yet integrity-checked (lazy scrub).
        self._unverified: set[int] = set()
        self._local = threading.local()
        self._drained_event = threading.Event()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._finished = False
        self._aborted = False
        #: Pages recovered, by who recovered them.
        self._recovered = {"ondemand": 0, "background": 0, "drain": 0}
        self._errors: list[tuple[int, Exception]] = []

    # -- preparation (before the database opens) ----------------------------

    def prepare(self) -> None:
        """Scan-free setup — no log pass beyond the analysis that
        already ran.  Each page's redo work is reached through its
        backward log chain (``LogRecord.prev_page_lsn``), whose tails
        analysis reconstructed, so the dark window before the database
        opens is bounded by the checkpoint interval, not by the redo
        span.  No data page is read."""
        ctx = self.ctx
        dpt = self.analysis.dirty_pages
        self._pending = set(dpt)
        self._unverified = set(ctx.disk.page_ids()) - self._pending
        # New allocations must not collide with logged-but-unflushed
        # pages.  Every allocated page is either flushed (on disk) or
        # dirty (in the DPT), so the two sets bound the allocator.
        max_page_id = max(
            max(dpt, default=0), max(ctx.disk.page_ids(), default=0)
        )
        if max_page_id:
            ctx.disk.ensure_allocator_above(max_page_id)
        # Pre-seed the buffer DPT (see module docstring): checkpoints
        # taken while recovering must carry every unrecovered recLSN.
        for page_id in self._pending:
            ctx.buffer.set_rec_lsn(page_id, dpt[page_id])
        self._reconcile_heap_views(self.analysis.heap_formats)
        ctx.buffer.recovery_hook = self._on_fix
        ctx.stats.gauge(
            "recovery.pages_unrecovered", len(self._pending) + len(self._unverified)
        )
        ctx.stats.incr("recovery.instant_pages_pending", len(self._pending))

    def _reconcile_heap_views(self, heap_formats: dict[int, set[int]]) -> None:
        """Re-derive each table's heap page list without reading a
        page.  The WAL rule guarantees a heap page on disk has its
        format record in the durable log, so the true page set of a
        table is: the pre-crash in-memory view filtered to pages that
        still exist on disk or appear in the DPT, plus every page the
        analysis span formats for that table."""
        ctx = self.ctx
        disk_ids = set(ctx.disk.page_ids())
        dpt = self.analysis.dirty_pages
        for table in ctx.tables.values():
            keep = [
                p for p in table.heap.page_ids if p in disk_ids or p in dpt
            ]
            extra = heap_formats.get(table.table_id, set()) - set(keep)
            table.heap.adopt_pages(sorted(set(keep) | extra))

    # -- the hook ------------------------------------------------------------

    def _on_fix(self, page_id: int) -> None:
        if self._finished:
            return
        if getattr(self._local, "active", False):
            return  # re-entrant fix from recovery internals
        self.ensure_recovered(page_id)

    # -- per-page recovery ---------------------------------------------------

    def ensure_recovered(self, page_id: int, by: str = "ondemand") -> None:
        """Bring one page to its pre-crash recovered state, exactly once.

        Foreground callers (via the hook) pay the lazy-recovery cost
        inline; if another thread is already recovering the page, they
        wait up to ``ONDEMAND_RECOVERY_TIMEOUT_SECONDS`` for it.  ``by``
        names the caller for the ``recovery.pages_recovered_*`` stats:
        ``"ondemand"`` (a page fix), ``"background"`` (the background thread)
        or ``"drain"`` (:meth:`drain` on the calling thread).
        """
        with self._mutex:
            if self._finished:
                return
            if page_id not in self._pending and page_id not in self._unverified:
                return
            lock = self._page_locks.get(page_id)
            if lock is None:
                lock = self._page_locks[page_id] = threading.Lock()
        timeout = ONDEMAND_RECOVERY_TIMEOUT_SECONDS
        if not lock.acquire(timeout=timeout):
            self.ctx.stats.incr("recovery.ondemand_timeouts")
            raise RecoveryTimeoutError(
                f"recovery of page {page_id} did not finish within {timeout}s"
            )
        try:
            with self._mutex:
                if self._finished or self._aborted:
                    return
                pending = page_id in self._pending
                unverified = page_id in self._unverified
            if not pending and not unverified:
                return  # recovered while we waited for the page lock
            self._local.active = True
            try:
                self._recover_page(page_id, pending)
            finally:
                self._local.active = False
            with self._mutex:
                self._pending.discard(page_id)
                self._unverified.discard(page_id)
                remaining = len(self._pending) + len(self._unverified)
                self._recovered[by] += 1
            stats = self.ctx.stats
            stats.incr(f"recovery.pages_recovered_{by}")
            stats.gauge("recovery.pages_unrecovered", remaining)
            if remaining == 0:
                self.finish_if_empty()
        finally:
            lock.release()

    def _chain_records(self, page_id: int, rec_lsn: int) -> list[LogRecord]:
        """The page's redo-relevant records, oldest first, from walking
        its backward log chain from the tail analysis reconstructed.
        The walk stops below the page's recLSN — earlier records are
        already on disk — or at the page's format record, whose link is
        NULL."""
        ctx = self.ctx
        lsn = self.analysis.page_heads.get(page_id, NULL_LSN)
        records: list[LogRecord] = []
        while lsn != NULL_LSN and lsn >= rec_lsn:
            record = ctx.log.read(lsn)
            records.append(record)
            lsn = record.prev_page_lsn
        records.reverse()
        return records

    def _recover_page(self, page_id: int, pending: bool) -> None:
        ctx = self.ctx
        # The scrub: the first read of an on-disk page checks its CRC,
        # and a torn page is rebuilt from its full history before its
        # chain is replayed onto it.
        checked = rebuilt = rebuilt_records = 0
        try:
            ctx.buffer.fix(page_id)  # noqa: RPR001 - unfixed on the next line; fix itself raises on corruption
            ctx.buffer.unfix(page_id)
            checked = 1
        except CorruptPageError:
            rebuilt_records = rebuild_page_from_log(ctx, page_id)
            checked = rebuilt = 1
            ctx.stats.incr("recovery.lazy_pages_rebuilt")
        except PageNotFoundError:
            pass  # never reached disk (pending) or deallocated since listing
        if not pending:
            ctx.stats.incr("recovery.lazy_pages_verified")
        redone = examined = 0
        if pending:
            rec_lsn = self.analysis.dirty_pages[page_id]
            records = self._chain_records(page_id, rec_lsn)
            examined = len(records)
            # replay_page materialises a missing page from its format
            # record; the page-LSN test keeps replay idempotent.
            redone = replay_page(ctx, records, rec_lsn=rec_lsn)
            # A page whose disk image already contained every change
            # never became dirty: shed the pre-seeded DPT entry.
            ctx.buffer.forget_clean_entry(page_id)
            ctx.stats.incr("recovery.redo_pages_accessed")
        with self._mutex:
            self.scrub.pages_checked += checked
            self.scrub.pages_rebuilt += rebuilt
            self.scrub.records_applied += rebuilt_records
            if pending:
                self.redo.records_examined += examined
                self.redo.records_redone += redone
                self.redo.pages_touched += 1

    # -- background drain ----------------------------------------------------

    def start_background(self) -> None:
        """Start the background thread that drains the backlog behind
        the foreground."""
        with self._mutex:
            if self._thread is not None or self._finished or self._aborted:
                return
            self._thread = threading.Thread(
                target=self._drain_in_background, name="recovery-worker", daemon=True
            )
        self._thread.start()

    def _drain_in_background(self) -> None:
        self.recover_backlog(redo=True, by="background")
        self.recover_backlog(redo=False, by="background")

    def recover_backlog(self, redo: bool, by: str = "drain") -> None:
        """Recover every page still in one backlog, in page order: the
        pending (redo) set or the unverified (scrub) set.  Pages another
        thread recovers meanwhile are skipped.  The background thread
        counts a page's error and moves on; a drain raises it."""
        with self._mutex:
            backlog = sorted(self._pending if redo else self._unverified)
        for page_id in backlog:
            if self._stop.is_set():
                return
            try:
                self.ensure_recovered(page_id, by=by)
            except Exception as exc:  # noqa: BLE001,RPR005 - must not kill the background drain
                if by != "background":
                    raise
                if self._stop.is_set():
                    return
                with self._mutex:
                    self._errors.append((page_id, exc))
                self.ctx.stats.incr("recovery.background_errors")

    def drain(self, timeout: float | None = None) -> bool:
        """Recover everything still outstanding on the calling thread
        (retrying pages the background thread failed on) — redo, then the
        scrub — and wait for the drained state.  Returns False on abort
        or timeout."""
        run_redo(self)
        run_scrub(self)
        if timeout is None:
            timeout = ONDEMAND_RECOVERY_TIMEOUT_SECONDS
        return self._drained_event.wait(timeout) and not self._aborted

    def wait_drained(self, timeout: float | None = None) -> bool:
        return self._drained_event.wait(timeout) and not self._aborted

    def finish_if_empty(self) -> None:
        """Go steady once nothing is left to recover (at once, for a
        restart with no redo work and nothing to verify)."""
        with self._mutex:
            if self._finished or self._aborted:
                return
            if self._pending or self._unverified:
                return
            self._finished = True
        ctx = self.ctx
        ctx.buffer.recovery_hook = None
        # The deferred restart checkpoint: the next crash's analysis
        # starts here instead of re-scanning the pre-crash span.
        try:
            if not ctx.log.halted:
                ctx.log.force()
                take_checkpoint(ctx)
        except (LogHaltedError, DatabaseClosedError):
            pass  # a concurrent crash wins; the next restart re-derives all
        ctx.stats.incr("recovery.instant_drains")
        ctx.stats.gauge("recovery.pages_unrecovered", 0)
        self._drained_event.set()

    # -- lifecycle -----------------------------------------------------------

    def abort(self) -> None:
        """Crash landed mid-drain: stop the background thread (retiring
        the pool uninstalls the hook).  Durable state needs no cleanup —
        the pre-seeded DPT entries are checkpoint-carried, so the next
        restart redoes what this one did not finish.  The background
        thread itself may be the one crashing (a fatal I/O fault): it
        exits after the page in hand."""
        self._stop.set()
        with self._mutex:
            self._aborted = True
            self._finished = True
        self._drained_event.set()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=2.0)

    # -- observation ---------------------------------------------------------

    @property
    def drained(self) -> bool:
        return self._drained_event.is_set() and not self._aborted

    def progress(self) -> dict:
        with self._mutex:
            return {
                "pages_pending": len(self._pending) + len(self._unverified),
                "pages_redo_pending": len(self._pending),
                "pages_unverified": len(self._unverified),
                "pages_recovered_ondemand": self._recovered["ondemand"],
                "pages_recovered_background": self._recovered["background"],
                "pages_recovered_drain": self._recovered["drain"],
                "background_errors": len(self._errors),
                "drained": self._drained_event.is_set() and not self._aborted,
            }


def run_instant_restart(ctx: "Database", background: bool = True) -> RestartReport:
    """Analysis + eager undo, then open; redo happens on demand and in
    the background (see module docstring).  With ``background=False``
    no thread starts — recovery is purely on-demand until the caller
    invokes ``governor.start_background()`` or ``drain()``."""
    tail_dropped = ctx.log.repair_tail()

    analysis = run_analysis(ctx)
    for txn in analysis.transactions.values():
        ctx.txns.adopt(txn)

    governor = RecoveryGovernor(ctx, analysis)
    governor.prepare()
    ctx.incarnation.recovery = governor

    # No-reuse floor for transaction ids.  The checkpoint-carried floor
    # covers every id allocated before the checkpoint (including all of
    # the redo span behind it); the analysis scan covers the rest.
    ctx.txns.adopt_floor(max(analysis.next_txn_id, analysis.max_txn_id + 1))

    # In-doubt branches park with their locks re-held (eagerly, before
    # the database opens — conflicting work must block from the first
    # served request, not from when their pages happen to drain).
    reacquire_prepared_locks(ctx, analysis.prepared)

    # Eager undo: loser rollback cost is O(in-flight work), and paying
    # it up front is what guarantees zero stale reads once open.  The
    # pages undo touches are recovered on demand through the hook.
    undo = run_undo(ctx, analysis.losers)
    ctx.log.force()

    governor.finish_if_empty()
    if background:
        governor.start_background()
    return RestartReport(
        analysis=analysis,
        redo=governor.redo,
        undo=undo,
        scrub=governor.scrub,
        log_tail_bytes_discarded=tail_dropped,
        governor=governor,
    )
