"""Restart recovery orchestration: the passes of ARIES (§1.2).

``run_restart`` assumes the volatile state is already gone (the
database's :meth:`crash` dropped the buffer pool and the unforced log
tail) and performs log-tail repair → analysis → scrub (self-healing of
torn/damaged pages) → redo (repeating history) → undo, then takes a
checkpoint so the next restart is cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.codec.values import decode_lock_table
from repro.locks.modes import LockDuration, LockMode
from repro.recovery.analysis import AnalysisResult, run_analysis
from repro.recovery.checkpoint import take_checkpoint
from repro.recovery.media import ScrubResult, run_scrub
from repro.recovery.redo import RedoResult, run_redo
from repro.recovery.undo import UndoResult, run_undo

if TYPE_CHECKING:  # pragma: no cover
    from repro.db import Database
    from repro.txn.transaction import Transaction


def reacquire_prepared_locks(ctx: "Database", prepared: "list[Transaction]") -> int:
    """Re-grant each in-doubt transaction the COMMIT-duration locks its
    PREPARE record carried, so the branch keeps excluding conflicting
    work until the coordinator's decision arrives.  Runs against the
    fresh (quiescent) post-crash lock table, so conditional requests
    always succeed — a failure means the table was not quiesced and is
    a real bug, hence the assert-style check."""
    granted = 0
    for txn in prepared:
        record = ctx.log.read(txn.prepare_lsn)
        for name, mode in decode_lock_table(record.payload.get("locks")):
            if ctx.locks.request(
                txn.txn_id,
                name,
                LockMode(mode),
                LockDuration.COMMIT,
                conditional=True,
            ):
                granted += 1
    ctx.stats.incr("recovery.prepared_transactions", len(prepared))
    ctx.stats.incr("recovery.prepared_locks_reacquired", granted)
    return granted


@dataclass
class RestartReport:
    """What restart did — the measures the paper cares about (§1):
    passes over the log, pages accessed during redo and undo, and the
    page-oriented vs. logical undo split (read from the stats
    registry) — plus what the robustness layer repaired: log bytes
    discarded from a torn tail, and pages rebuilt by the scrub."""

    analysis: AnalysisResult
    redo: RedoResult
    undo: UndoResult
    scrub: ScrubResult = field(default_factory=ScrubResult)
    log_tail_bytes_discarded: int = 0
    log_passes: int = 3


def run_restart(ctx: "Database") -> RestartReport:
    # The durable log may end mid-record (torn tail): truncate at the
    # first frame that fails its CRC before any pass reads the log.
    tail_dropped = ctx.log.repair_tail()

    analysis = run_analysis(ctx)

    # The log's volatile per-page chain map died with the crash; the
    # first post-restart append to a still-dirty page must link to its
    # pre-crash records, so restore the tails analysis reconstructed.
    ctx.log.seed_page_chain(analysis.page_heads)

    # Adopt reconstructed in-flight transactions so undo can log CLRs
    # through the ordinary transaction machinery.
    for txn in analysis.transactions.values():
        ctx.txns.adopt(txn)

    # Self-heal: every on-disk page is integrity-checked and corrupt
    # ones (torn writes) are rebuilt from the log before redo relies
    # on the page-LSN comparison.
    scrub = run_scrub(ctx)

    redo = run_redo(ctx, analysis)

    # Winners that committed but never wrote an END just need one.
    for txn in analysis.winners_needing_end:
        from repro.txn.transaction import TxnStatus
        from repro.wal.records import LogRecord, RecordKind

        end = LogRecord(kind=RecordKind.END, txn_id=txn.txn_id, undoable=False)
        ctx.txns.log_for(txn, end)
        txn.status = TxnStatus.ENDED
        ctx.txns.forget(txn.txn_id)

    # In-doubt branches (PREPARE forced, decision pending) are neither
    # losers nor winners: park them with their locks re-held until the
    # coordinator resolves them.
    reacquire_prepared_locks(ctx, analysis.prepared)

    undo = run_undo(ctx, analysis.losers)

    ctx.log.force()
    take_checkpoint(ctx)
    ctx.stats.incr("recovery.restarts")
    return RestartReport(
        analysis=analysis,
        redo=redo,
        undo=undo,
        scrub=scrub,
        log_tail_bytes_discarded=tail_dropped,
    )
