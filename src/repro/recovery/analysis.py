"""Restart analysis pass (§1.2).

Starting from the last complete checkpoint's begin record (found via
the master record), scan forward to the end of the (durable) log,
rebuilding:

- the **transaction table**: every transaction with log activity and no
  END record, with its last LSN and undo-next LSN — the losers the undo
  pass will roll back (transactions with a COMMIT but no END are
  winners and merely get their END written);
- the **dirty page table**: page → recLSN for every page a redoable
  record touched, seeding redo's starting point (the minimum recLSN).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.recovery.checkpoint import unpack_dirty_pages
from repro.txn.transaction import Transaction, TxnStatus
from repro.wal.records import NULL_LSN, RM_HEAP, RecordKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.db import Database


@dataclass
class AnalysisResult:
    transactions: dict[int, Transaction] = field(default_factory=dict)
    dirty_pages: dict[int, int] = field(default_factory=dict)
    redo_lsn: int = NULL_LSN
    end_lsn: int = NULL_LSN
    records_scanned: int = 0
    max_txn_id: int = 0
    next_txn_id: int = 0
    """Floor carried by the newest checkpoint seen (0 if none recorded
    one); together with ``max_txn_id`` it re-establishes the no-reuse
    transaction-id floor without a full-history scan."""
    ended_txn_ids: set[int] = field(default_factory=set)
    """Transactions whose END record fell inside the analysis span.
    The checkpoint-payload merge must not resurrect them: a fuzzy
    checkpoint snapshots its transaction table *between* its begin and
    end records, so a transaction that ends inside that window appears
    both in the scan (which pops it at its END) and, stale, in the
    payload."""
    page_heads: dict[int, int] = field(default_factory=dict)
    """Page → LSN of the newest record seen for it: the tail of each
    dirty page's per-page log chain, merged from the scan and the
    checkpoint-carried ``last_lsn`` entries.  Restart walks the chain
    backwards from here, each link the PageLSN the page had when its
    record was logged, to recover one page without scanning the redo
    span."""
    heap_formats: dict[int, set[int]] = field(default_factory=dict)
    """Table id → heap pages formatted inside the analysis span.  Pages
    formatted earlier are already reflected wherever the in-memory heap
    views came from (the pre-crash process, or a standby's applied
    stream — the standby advances its master record in the same loop
    that notes formats, so its view always covers everything at or
    before the master checkpoint)."""

    @property
    def losers(self) -> list[Transaction]:
        return [
            t
            for t in self.transactions.values()
            if t.status in (TxnStatus.ACTIVE, TxnStatus.ROLLING_BACK)
        ]

    @property
    def winners_needing_end(self) -> list[Transaction]:
        return [
            t for t in self.transactions.values() if t.status is TxnStatus.COMMITTED
        ]

    @property
    def prepared(self) -> list[Transaction]:
        """In-doubt branches: PREPARE forced, no decision on this log.
        Neither losers (undo must not touch them) nor winners — restart
        reacquires their locks and parks them for the coordinator."""
        return [
            t for t in self.transactions.values() if t.status is TxnStatus.PREPARED
        ]


def run_analysis(ctx: "Database") -> AnalysisResult:
    result = AnalysisResult()
    start_lsn = ctx.log.master_lsn or 1
    checkpoint_begin_seen = False

    # Headers only: the few records whose payload matters here
    # (checkpoint end, PREPARE's gid, a heap format's table id) are
    # decoded individually with ``read``.
    log = ctx.log
    for record in log.record_headers(start_lsn):
        result.records_scanned += 1
        result.end_lsn = record.lsn
        kind = record.kind

        if kind is RecordKind.CKPT_BEGIN:
            checkpoint_begin_seen = True
            continue
        if kind is RecordKind.CKPT_END:
            if checkpoint_begin_seen:
                _merge_checkpoint(result, log.read(record.lsn).payload)
            continue

        if record.txn_id > result.max_txn_id:
            result.max_txn_id = record.txn_id

        if record.txn_id:
            txn = result.transactions.get(record.txn_id)
            if txn is None:
                txn = Transaction(txn_id=record.txn_id)
                result.transactions[txn.txn_id] = txn
            txn.last_lsn = record.lsn
            if kind is RecordKind.UPDATE and record.undoable:
                txn.undo_next_lsn = record.lsn
            elif kind in (RecordKind.CLR, RecordKind.DUMMY_CLR):
                txn.undo_next_lsn = record.undo_next_lsn or NULL_LSN
            elif kind is RecordKind.COMMIT:
                txn.status = TxnStatus.COMMITTED
            elif kind is RecordKind.PREPARE:
                txn.status = TxnStatus.PREPARED
                txn.gid = log.read(record.lsn).payload.get("gid")
                txn.prepare_lsn = record.lsn
            elif kind is RecordKind.ROLLBACK:
                txn.status = TxnStatus.ROLLING_BACK
            elif kind is RecordKind.END:
                result.transactions.pop(record.txn_id, None)
                result.ended_txn_ids.add(record.txn_id)

        if record.is_redoable and record.page_id is not None:
            result.dirty_pages.setdefault(record.page_id, record.lsn)
            result.page_heads[record.page_id] = record.lsn
            if record.rm == RM_HEAP and record.op == "format":
                table_id = log.read(record.lsn).payload.get("table_id", 0)
                result.heap_formats.setdefault(table_id, set()).add(
                    record.page_id
                )

    if result.dirty_pages:
        result.redo_lsn = min(result.dirty_pages.values())
    ctx.stats.incr("recovery.analysis_passes")
    ctx.stats.incr("recovery.analysis_records", result.records_scanned)
    return result


def _merge_checkpoint(result: AnalysisResult, payload: dict) -> None:
    """Fold the checkpoint-end snapshots in (log records seen after the
    checkpoint begin take precedence, so only fill gaps)."""
    for entry in payload.get("txn_table", ()):
        txn_id = entry["txn_id"]
        if txn_id in result.transactions or txn_id in result.ended_txn_ids:
            continue
        txn = Transaction(txn_id=txn_id)
        txn.status = TxnStatus(entry["status"])
        txn.last_lsn = entry["last_lsn"]
        txn.undo_next_lsn = entry["undo_next_lsn"]
        txn.gid = entry.get("gid")
        txn.prepare_lsn = entry.get("prepare_lsn", NULL_LSN)
        result.transactions[txn_id] = txn
    for page_id, rec_lsn, last_lsn in unpack_dirty_pages(payload["dirty_pages"]):
        current = result.dirty_pages.get(page_id)
        if current is None or rec_lsn < current:
            result.dirty_pages[page_id] = rec_lsn
        if last_lsn > result.page_heads.get(page_id, NULL_LSN):
            result.page_heads[page_id] = last_lsn
    floor = payload.get("next_txn_id", 0)
    if floor > result.next_txn_id:
        result.next_txn_id = floor
