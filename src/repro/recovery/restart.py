"""Restart recovery: its report, and the in-doubt branches' locks.

There is one restart procedure,
:func:`~repro.recovery.instant.run_instant_restart` (see that module):
``Database.restart()`` runs it and drains its page backlog on the
calling thread before returning; ``Database.instant_restart()`` opens
the database at once and drains on demand and in the background.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.codec.values import decode_lock_table
from repro.locks.modes import LockDuration, LockMode
from repro.recovery.analysis import AnalysisResult
from repro.recovery.media import ScrubResult
from repro.recovery.redo import RedoResult
from repro.recovery.undo import UndoResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.db import Database
    from repro.recovery.instant import RecoveryGovernor
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
    discarded from a torn tail, and pages rebuilt by the scrub.

    ``log_passes`` is 2 — analysis and undo.  Redo reads each dirty
    page's own chain and makes no pass of its own.  ``redo`` and
    ``scrub`` are filled as pages drain: final when ``restart()``
    returns (its ``governor`` is then None), and after
    ``governor.wait_drained`` for an instant restart."""

    analysis: AnalysisResult
    redo: RedoResult
    undo: UndoResult
    scrub: ScrubResult = field(default_factory=ScrubResult)
    log_tail_bytes_discarded: int = 0
    log_passes: int = 2
    governor: "RecoveryGovernor | None" = None
