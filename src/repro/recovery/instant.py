"""Instant restart: serve-while-recovering (Sauer & Härder; Lomet et al.).

Classic ``run_restart`` is stop-the-world: the database is dark until
analysis, a full scrub, full redo, and undo finish — time proportional
to the log span since the last checkpoint.  This module turns recovery
into a *per-page property* instead:

1. **Analysis** runs as usual — one parse-only scan from the last
   checkpoint, so its cost is bounded by the checkpoint interval.  It
   also reconstructs the tail of each dirty page's *per-page log
   chain*: every page record carries ``prev_page_lsn``, the LSN of the
   previous record that touched the same page, so one page's redo work
   is reachable by walking backwards from its chain tail without ever
   scanning the (possibly much longer) redo span.  No page is read,
   and no further log pass runs before the database opens.
2. **Undo** of loser transactions runs eagerly before the database
   opens — its cost is proportional to the in-flight work at crash
   time, not to the log, and running it up front means no new
   transaction can ever observe uncommitted pre-crash state (zero
   stale reads).
3. The database **opens**.  Every page fix now passes through a
   :class:`RecoveryGovernor` hook on the buffer pool: the first touch
   of a still-unrecovered page replays exactly that page's records
   (on-demand single-page recovery), the first touch of a not-yet
   integrity-checked page CRC-verifies it and rebuilds it from the
   full log history if a torn write damaged it (the lazy equivalent of
   the scrub pass).
4. A bounded pool of **background redo workers** partitions the
   remaining pages by page id and drains them behind the foreground.
   Per-page locks make on-demand and background recovery of the same
   page mutually exclusive; the ARIES page-LSN test makes any replay
   idempotent regardless.
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
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.common.errors import (
    CorruptPageError,
    LogHaltedError,
    PageNotFoundError,
    RecoveryTimeoutError,
)
from repro.recovery.analysis import AnalysisResult, run_analysis
from repro.recovery.checkpoint import take_checkpoint
from repro.recovery.media import rebuild_page_from_log
from repro.recovery.redo import RedoResult, apply_record
from repro.recovery.restart import RestartReport, reacquire_prepared_locks
from repro.recovery.undo import run_undo
from repro.txn.transaction import TxnStatus
from repro.wal.records import NULL_LSN, LogRecord, RecordKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.db import Database


@dataclass
class InstantRestartReport(RestartReport):
    """``RestartReport`` plus the live governor.  ``redo`` is updated
    *progressively* as pages drain; read it after ``wait_drained`` for
    final numbers."""

    governor: "RecoveryGovernor | None" = None


class RecoveryGovernor:
    """Owns the not-yet-recovered page set of one instant restart.

    Thread model: any number of foreground threads (via the buffer
    pool's ``recovery_hook``) plus ``redo_workers`` background threads
    call :meth:`ensure_recovered` concurrently.  A per-page lock
    serializes recovery of one page; the governor's own mutex only
    guards the bookkeeping sets.  Recovery internals re-enter the
    buffer pool to fix pages — a thread-local flag makes the hook a
    no-op on those inner fixes (recovery of page P touches only P, or
    rebuilds P from history, never another unrecovered page).
    """

    def __init__(
        self, ctx: "Database", analysis: AnalysisResult, redo_workers: int = 4
    ) -> None:
        self.ctx = ctx
        self.analysis = analysis
        self.redo_workers = max(1, redo_workers)
        #: Progressively updated; final once drained.
        self.redo = RedoResult()
        self._mutex = threading.Lock()
        self._page_locks: dict[int, threading.Lock] = {}
        #: Pages with redo work outstanding.
        self._pending: set[int] = set()
        #: On-disk pages not yet integrity-checked (lazy scrub).
        self._unverified: set[int] = set()
        self._local = threading.local()
        self._drained_event = threading.Event()
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._started_background = False
        self._finished = False
        self._aborted = False
        self._ondemand_count = 0
        self._background_count = 0
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
        """Lazy replacement for ``Database._rebuild_heap_views`` (which
        fixes *every* page and would defeat instant restart).  The WAL
        rule guarantees a heap page on disk has its format record in
        the durable log, so the true page set of a table is: the
        pre-crash in-memory view filtered to pages that still exist on
        disk or appear in the DPT, plus every page the redo span
        formats for that table."""
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

    def ensure_recovered(self, page_id: int, background: bool = False) -> None:
        """Bring one page to its pre-crash recovered state, exactly once.

        Foreground callers (via the hook) pay the lazy-recovery cost
        inline; if another thread is already recovering the page, they
        wait up to ``ondemand_recovery_timeout_seconds`` for it.
        """
        with self._mutex:
            if self._finished:
                return
            if page_id not in self._pending and page_id not in self._unverified:
                return
            lock = self._page_locks.get(page_id)
            if lock is None:
                lock = self._page_locks[page_id] = threading.Lock()
        timeout = self.ctx.config.ondemand_recovery_timeout_seconds
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
                if background:
                    self._background_count += 1
                else:
                    self._ondemand_count += 1
            stats = self.ctx.stats
            stats.incr(
                "recovery.pages_recovered_background"
                if background
                else "recovery.pages_recovered_ondemand"
            )
            stats.gauge("recovery.pages_unrecovered", remaining)
            if remaining == 0:
                self._finish()
        finally:
            lock.release()

    def _chain_records(self, page_id: int, rec_lsn: int) -> list[LogRecord]:
        """The page's redo-relevant records, oldest first, from walking
        its backward log chain.  The walk stops below the page's
        recLSN: earlier records (including any earlier incarnation of a
        recycled page id) are already on disk.  Falls back to a
        header-only scan of the redo span when no chain head is known —
        e.g. a ``last_lsn``-less checkpoint written by an older build."""
        log = self.ctx.log
        lsn = self.analysis.page_heads.get(page_id, NULL_LSN)
        records: list[LogRecord] = []
        while lsn != NULL_LSN and lsn >= rec_lsn:
            record = log.read(lsn)
            records.append(record)
            lsn = record.prev_page_lsn
        if records:
            records.reverse()
            return records
        return [
            log.read(header.lsn)
            for header in log.record_headers(rec_lsn)
            if header.is_redoable and header.page_id == page_id
        ]

    def _recover_page(self, page_id: int, pending: bool) -> None:
        ctx = self.ctx
        if pending:
            rec_lsn = self.analysis.dirty_pages[page_id]
            records = self._chain_records(page_id, rec_lsn)
            applied = 0
            for record in records:
                # apply_record materialises a missing page from its
                # format record and rebuilds a torn one from history;
                # the page-LSN test keeps replay idempotent.
                if apply_record(ctx, record, rec_lsn=rec_lsn):
                    applied += 1
            with self._mutex:
                self.redo.records_examined += len(records)
                self.redo.records_redone += applied
                self.redo.pages_touched += 1
            # A page whose disk image already contained every change
            # never became dirty: shed the pre-seeded DPT entry.
            ctx.buffer.forget_clean_entry(page_id)
        else:
            # Lazy scrub: first touch integrity-checks the page (the
            # buffer read runs the CRC) and self-heals torn writes.
            try:
                ctx.buffer.fix(page_id)  # noqa: RPR001 - unfixed on the next line; fix itself raises on corruption
                ctx.buffer.unfix(page_id)
            except CorruptPageError:
                rebuild_page_from_log(ctx, page_id)
                ctx.stats.incr("recovery.lazy_pages_rebuilt")
            except PageNotFoundError:
                pass  # deallocated between listing and touch
            ctx.stats.incr("recovery.lazy_pages_verified")

    # -- background drain ----------------------------------------------------

    def start_background(self) -> None:
        """Launch the bounded worker pool: the remaining pages are
        partitioned by ``page_id % redo_workers`` and drained behind
        the foreground."""
        with self._mutex:
            if self._started_background or self._finished or self._aborted:
                return
            self._started_background = True
            backlog = sorted(self._pending) + sorted(self._unverified)
        if not backlog:
            self._finish()
            return
        workers = min(self.redo_workers, len(backlog))
        shards: list[list[int]] = [[] for _ in range(workers)]
        for page_id in backlog:
            shards[page_id % workers].append(page_id)
        # Workers wait for every sibling to be started: a worker that
        # began draining at once would hold the interpreter lock this
        # thread needs to start the next one and to open the database.
        go = threading.Event()
        for index, shard in enumerate(shards):
            if not shard:
                continue
            thread = threading.Thread(
                target=self._worker, args=(shard, go), name=f"redo-worker-{index}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()
        go.set()

    def _worker(self, shard: list[int], go: threading.Event) -> None:
        go.wait()
        for page_id in shard:
            if self._stop.is_set():
                return
            try:
                self.ensure_recovered(page_id, background=True)
            except Exception as exc:  # noqa: BLE001,RPR005 - must not kill the drain
                if self._stop.is_set():
                    return
                with self._mutex:
                    self._errors.append((page_id, exc))
                self.ctx.stats.incr("recovery.background_errors")

    def drain(self, timeout: float | None = None) -> bool:
        """Recover everything still outstanding on the calling thread
        (retrying pages a background worker failed on), then wait for
        the drained state.  Returns False on abort or timeout."""
        with self._mutex:
            backlog = sorted(self._pending | self._unverified)
        for page_id in backlog:
            if self._stop.is_set():
                break
            self.ensure_recovered(page_id, background=True)
        if timeout is None:
            timeout = self.ctx.config.ondemand_recovery_timeout_seconds
        return self._drained_event.wait(timeout) and not self._aborted

    def wait_drained(self, timeout: float | None = None) -> bool:
        return self._drained_event.wait(timeout) and not self._aborted

    def finish_if_empty(self) -> None:
        """Used by foreground-only mode: a restart with no redo work
        and nothing to verify is steady immediately."""
        with self._mutex:
            if self._pending or self._unverified or self._finished:
                return
        self._finish()

    def _finish(self) -> None:
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
        except LogHaltedError:
            pass  # a concurrent crash wins; the next restart re-derives all
        ctx.stats.incr("recovery.instant_drains")
        ctx.stats.gauge("recovery.pages_unrecovered", 0)
        self._drained_event.set()

    # -- lifecycle -----------------------------------------------------------

    def abort(self) -> None:
        """Crash landed mid-drain: stop the workers, uninstall the hook.
        Durable state needs no cleanup — the pre-seeded DPT entries are
        checkpoint-carried, so the next restart redoes what this one
        did not finish."""
        self._stop.set()
        with self._mutex:
            self._aborted = True
            self._finished = True
        self.ctx.buffer.recovery_hook = None
        self._drained_event.set()
        for thread in self._threads:
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
                "pages_recovered_ondemand": self._ondemand_count,
                "pages_recovered_background": self._background_count,
                "background_errors": len(self._errors),
                "drained": self._drained_event.is_set() and not self._aborted,
            }


def run_instant_restart(
    ctx: "Database", redo_workers: int = 4, background: bool = True
) -> InstantRestartReport:
    """Analysis + eager undo, then open; redo happens on demand and in
    the background (see module docstring).  With ``background=False``
    no workers start — recovery is purely on-demand until the caller
    invokes ``governor.start_background()`` or ``drain()``."""
    tail_dropped = ctx.log.repair_tail()

    analysis = run_analysis(ctx)
    # Restore the volatile per-page chain tails before anything (undo!)
    # appends a page record against the revived log.
    ctx.log.seed_page_chain(analysis.page_heads)
    for txn in analysis.transactions.values():
        ctx.txns.adopt(txn)

    governor = RecoveryGovernor(ctx, analysis, redo_workers=redo_workers)
    governor.prepare()
    ctx.recovery = governor

    # No-reuse floor for transaction ids.  The checkpoint-carried floor
    # covers every id allocated before the checkpoint (including all of
    # the redo span behind it); the analysis scan covers the rest.
    ctx.txns.adopt_floor(max(analysis.next_txn_id, analysis.max_txn_id + 1))

    # Winners that committed but never wrote an END just need one.
    for txn in analysis.winners_needing_end:
        end = LogRecord(kind=RecordKind.END, txn_id=txn.txn_id, undoable=False)
        ctx.txns.log_for(txn, end)
        txn.status = TxnStatus.ENDED
        ctx.txns.forget(txn.txn_id)

    # In-doubt branches park with their locks re-held (eagerly, before
    # the database opens — conflicting work must block from the first
    # served request, not from when their pages happen to drain).
    reacquire_prepared_locks(ctx, analysis.prepared)

    # Eager undo: loser rollback cost is O(in-flight work), and paying
    # it up front is what guarantees zero stale reads once open.  The
    # pages undo touches are recovered on demand through the hook.
    undo = run_undo(ctx, analysis.losers)
    ctx.log.force()
    ctx.stats.incr("recovery.instant_restarts")

    if background:
        governor.start_background()
    else:
        governor.finish_if_empty()
    return InstantRestartReport(
        analysis=analysis,
        redo=governor.redo,
        undo=undo,
        log_tail_bytes_discarded=tail_dropped,
        log_passes=2,
        governor=governor,
    )
