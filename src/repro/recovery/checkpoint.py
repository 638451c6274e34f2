"""Fuzzy checkpoints (§1.2).

A checkpoint is a ``CKPT_BEGIN`` / ``CKPT_END`` record pair; the end
record carries snapshots of the transaction table and the dirty page
table taken *without* quiescing anything (hence fuzzy).  The master
record then points at the begin record, which is where the next
restart's analysis pass starts reading.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING

from repro.common.errors import RecoveryError
from repro.txn.transaction import TxnStatus
from repro.wal.records import NULL_LSN, LogRecord, RecordKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.db import Database


def take_checkpoint(ctx: "Database") -> int:
    """Write a fuzzy checkpoint; returns the begin record's LSN."""
    begin = LogRecord(kind=RecordKind.CKPT_BEGIN, txn_id=0, undoable=False)
    begin_lsn = ctx.txns.append_checkpoint_begin(begin)

    txn_table = []
    for txn in ctx.txns.table_snapshot().values():
        # A transaction whose COMMIT is logged is a winner: its COMMIT
        # precedes the begin record or is in the next analysis span.
        if txn.status is TxnStatus.ENDED or txn.commit_lsn != NULL_LSN:
            continue
        entry = {
            "txn_id": txn.txn_id,
            "status": txn.status.value,
            "last_lsn": txn.last_lsn,
            "undo_next_lsn": txn.undo_next_lsn,
        }
        if txn.is_prepared:
            # Carry the in-doubt identity so an analysis pass whose scan
            # starts after the PREPARE record still knows where it is.
            entry["gid"] = txn.gid
            entry["prepare_lsn"] = txn.prepare_lsn
        txn_table.append(entry)
    # Page id, recLSN and log-chain tail of every dirty page (the tail,
    # so a restart whose analysis span starts here can still walk the
    # chain of a page not touched after this checkpoint), packed as
    # one run of integers: analysis, which runs before an instant
    # restart opens, decodes it in one call instead of a dict per page.
    # The tail is the PageLSN, a record logged before the begin record
    # but not yet stamped, or, for a page a restart has not finished
    # recovering, the tail its analysis found.
    governor = ctx.recovery
    heads = governor.analysis.page_heads if governor is not None else {}
    dirty_pages = []
    for page_id, rec_lsn, last_lsn in ctx.buffer.dirty_page_heads():
        last_lsn = max(last_lsn, heads.get(page_id, NULL_LSN))
        dirty_pages += (page_id, rec_lsn, last_lsn)
    end = LogRecord(
        kind=RecordKind.CKPT_END,
        txn_id=0,
        undoable=False,
        payload={
            "txn_table": txn_table,
            "dirty_pages": struct.pack(f">{len(dirty_pages)}Q", *dirty_pages),
            "next_txn_id": ctx.txns.next_txn_id,
        },
    )
    ctx.log.append(end)
    ctx.log.force()
    ctx.log.write_master(begin_lsn)
    ctx.stats.incr("recovery.checkpoints_taken")
    return begin_lsn


def unpack_dirty_pages(packed: bytes) -> list[tuple[int, int, int]]:
    """``(page_id, rec_lsn, last_lsn)`` of each checkpointed dirty page."""
    if not isinstance(packed, bytes):
        raise RecoveryError(
            "checkpoint dirty page table is not a packed integer run "
            f"(got {type(packed).__name__}): the log was written in the "
            "earlier list-of-entries checkpoint format"
        )
    values = struct.unpack(f">{len(packed) // 8}Q", packed)
    return list(zip(values[0::3], values[1::3], values[2::3]))
