"""Restart analysis pass (§1.2).

Starting from the last complete checkpoint's begin record (found via
the master record), scan forward to the end of the (durable) log,
rebuilding:

- the **transaction table**: every transaction with log activity and
  neither a COMMIT nor an END record, with its last LSN and undo-next
  LSN — the losers the undo pass will roll back, and the in-doubt 2PC
  branches.  A COMMIT ends a committed transaction: no END follows it;
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

_UPDATE = RecordKind.UPDATE
_CLR = RecordKind.CLR
_DUMMY_CLR = RecordKind.DUMMY_CLR
_COMMIT = RecordKind.COMMIT
_PREPARE = RecordKind.PREPARE
_ROLLBACK = RecordKind.ROLLBACK
_END = RecordKind.END
_CKPT_BEGIN = RecordKind.CKPT_BEGIN
_CKPT_END = RecordKind.CKPT_END
_PREPARED = TxnStatus.PREPARED
_COMMITTED_VALUE = TxnStatus.COMMITTED.value
_ROLLING_BACK = TxnStatus.ROLLING_BACK


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
    """Transactions whose COMMIT or END record fell inside the analysis
    span.  The checkpoint-payload merge must not resurrect them: a fuzzy
    checkpoint snapshots its transaction table *between* its begin and
    end records, so a transaction that ends inside that window appears
    both in the scan (which pops it at its COMMIT or END) and, stale, in
    the payload."""
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
    def prepared(self) -> list[Transaction]:
        """In-doubt branches: PREPARE forced, no decision on this log.
        Neither losers (undo must not touch them) nor winners — restart
        reacquires their locks and parks them for the coordinator."""
        return [
            t for t in self.transactions.values() if t.status is TxnStatus.PREPARED
        ]


def run_analysis(ctx: "Database") -> AnalysisResult:
    result = AnalysisResult()
    transactions = result.transactions
    dirty_pages = result.dirty_pages
    page_heads = result.page_heads
    ended_txn_ids = result.ended_txn_ids
    checkpoint_begin_seen = False
    scanned = max_txn_id = 0
    lsn = NULL_LSN

    # Headers only: the few records whose payload matters here
    # (checkpoint end, PREPARE's gid, a heap format's table id) are
    # decoded individually with ``read``.  One flat loop over the
    # unpacked fields, the kinds and ``is_redoable`` inlined.
    log = ctx.log
    for lsn, kind, txn_id, _, rm, op, page_id, _, undo_next_lsn, undoable in (
        log.record_headers(log.master_lsn or 1)
    ):
        scanned += 1
        if kind is _CKPT_BEGIN:
            checkpoint_begin_seen = True
            continue
        if kind is _CKPT_END:
            if checkpoint_begin_seen:
                _merge_checkpoint(result, log.read(lsn).payload)
            continue

        if txn_id:
            if txn_id > max_txn_id:
                max_txn_id = txn_id
            txn = transactions.get(txn_id)
            if txn is None:
                txn = transactions[txn_id] = Transaction(txn_id=txn_id)
            txn.last_lsn = lsn
            if kind is _UPDATE:
                if undoable:
                    txn.undo_next_lsn = lsn
            elif kind is _CLR or kind is _DUMMY_CLR:
                txn.undo_next_lsn = undo_next_lsn or NULL_LSN
            elif kind is _COMMIT or kind is _END:
                # A COMMIT ends a committed transaction (no END follows
                # it); an END ends a rolled-back one.
                del transactions[txn_id]
                ended_txn_ids.add(txn_id)
            elif kind is _PREPARE:
                txn.status = _PREPARED
                txn.gid = log.read(lsn).payload.get("gid")
                txn.prepare_lsn = lsn
            elif kind is _ROLLBACK:
                txn.status = _ROLLING_BACK

        if page_id is not None and (kind is _UPDATE or kind is _CLR):
            if page_id not in dirty_pages:
                dirty_pages[page_id] = lsn
            page_heads[page_id] = lsn
            if op == "format" and rm == RM_HEAP:
                table_id = log.read(lsn).payload.get("table_id", 0)
                result.heap_formats.setdefault(table_id, set()).add(page_id)

    result.records_scanned = scanned
    result.end_lsn = lsn
    result.max_txn_id = max_txn_id
    if dirty_pages:
        result.redo_lsn = min(dirty_pages.values())
    ctx.stats.incr("recovery.analysis_passes")
    ctx.stats.incr("recovery.analysis_records", scanned)
    return result


def _merge_checkpoint(result: AnalysisResult, payload: dict) -> None:
    """Fold the checkpoint-end snapshots in (log records seen after the
    checkpoint begin take precedence, so only fill gaps)."""
    for entry in payload.get("txn_table", ()):
        txn_id = entry["txn_id"]
        if txn_id in result.transactions or txn_id in result.ended_txn_ids:
            continue
        if entry["status"] == _COMMITTED_VALUE:
            continue  # a winner: nothing to undo, nothing to hold
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
