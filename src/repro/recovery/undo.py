"""Restart undo pass (§1.2, §3).

All loser transactions are rolled back in reverse chronological order
in a single backward sweep: repeatedly pick the loser with the largest
undo-next LSN and process that record.  CLRs (including dummy CLRs
sealing completed nested top actions) only redirect the chain — which
is exactly how a *completed* SMO of a loser survives restart while an
*incomplete* one (no dummy CLR on the durable log) gets undone
page-oriented, restoring structural consistency before any record
whose undo might need to traverse the tree is reached (the POSC
argument of §3).

Losers are marked ``in_rollback``: no locks are requested during undo
(§4), so restart undo cannot deadlock.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.txn.transaction import Transaction, TxnStatus
from repro.wal.records import NULL_LSN, LogRecord, RecordKind, end_record

if TYPE_CHECKING:  # pragma: no cover
    from repro.db import Database


@dataclass
class UndoResult:
    transactions_rolled_back: int = 0
    records_undone: int = 0
    records_skipped: int = 0


def run_undo(ctx: "Database", losers: list[Transaction]) -> UndoResult:
    result = UndoResult()
    heap: list[tuple[int, int]] = []
    by_id: dict[int, Transaction] = {}
    for txn in losers:
        txn.in_rollback = True
        txn.status = TxnStatus.ROLLING_BACK
        by_id[txn.txn_id] = txn
        if txn.undo_next_lsn != NULL_LSN:
            heapq.heappush(heap, (-txn.undo_next_lsn, txn.txn_id))
        else:
            _finish(ctx, txn, result)

    while heap:
        neg_lsn, txn_id = heapq.heappop(heap)
        txn = by_id[txn_id]
        lsn = -neg_lsn
        if txn.undo_next_lsn != lsn:
            continue  # stale heap entry
        record = ctx.log.read(lsn)
        next_lsn = _undo_step(ctx, txn, record, result)
        txn.undo_next_lsn = next_lsn
        if next_lsn == NULL_LSN:
            _finish(ctx, txn, result)
        else:
            heapq.heappush(heap, (-next_lsn, txn_id))
    ctx.stats.incr("recovery.undo_passes")
    return result


def _undo_step(
    ctx: "Database", txn: Transaction, record: LogRecord, result: UndoResult
) -> int:
    if record.is_clr:
        result.records_skipped += 1
        return record.undo_next_lsn or NULL_LSN
    if record.kind is RecordKind.UPDATE and record.undoable:
        ctx.rm_registry.undo(ctx, txn, record)
        result.records_undone += 1
        ctx.stats.incr("recovery.records_undone")
        return record.prev_lsn
    result.records_skipped += 1
    return record.prev_lsn


def _finish(ctx: "Database", txn: Transaction, result: UndoResult) -> None:
    txn.in_rollback = False
    txn.status = TxnStatus.ENDED
    ctx.txns.log_for(txn, end_record(txn.txn_id))
    ctx.txns.forget(txn.txn_id)
    result.transactions_rolled_back += 1
    ctx.stats.incr("recovery.losers_rolled_back")
