"""Version garbage collection, bounded by the oldest snapshot.

Two jobs, both driven by the slot's *current* stamps (the only source
of truth):

1. advance the snapshot manager's watermark and shrink its commit
   table (:meth:`SnapshotManager.prune`);
2. sweep the dead-key store, discarding entries no snapshot can ever
   need again, and optionally *purge* the ghost slots behind them —
   logged as redo-only heap records under a system transaction, so a
   restart replays the purge and a standby ships it like any other
   redo.

An entry survives the sweep only while it might matter: its slot still
holds a ghost whose deleter is unresolved, or resolved-committed with
a commit timestamp some active snapshot predates.  Everything else
(slot already purged, deleter aborted so the ghost was unghosted,
deleter committed before the GC horizon) is swept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.common.errors import ConfigError
from repro.wal.records import RM_HEAP, update_record

if TYPE_CHECKING:  # pragma: no cover
    from repro.db import Database
    from repro.incarnation import Incarnation


@dataclass
class GcReport:
    """What one GC pass did."""

    commit_entries_pruned: int = 0
    dead_keys_swept: int = 0
    dead_keys_kept: int = 0
    slots_purged: int = 0
    oldest_snapshot_ts: int | None = None
    details: dict = field(default_factory=dict)


def run_mvcc_gc(db: "Database", purge: bool = True) -> GcReport:
    """One pass of version GC; safe to run concurrently with readers
    and writers (the GC horizon is captured first, and purging takes
    the ordinary page latches).  The pass runs in the incarnation
    current when it starts; a crash makes it fail at its next touch."""
    ctx = db.incarnation
    mgr = ctx.mvcc
    if mgr is None:
        raise ConfigError("MVCC is disabled (config.mvcc_enabled=False)")
    report = GcReport()
    # Order matters: next_txn_id before the table snapshot, so a txn
    # beginning between the reads cannot slip above the new watermark.
    next_id = ctx.txns.next_txn_id
    live = set(ctx.txns.table_snapshot().keys())
    oldest = mgr.oldest_ts()
    report.oldest_snapshot_ts = oldest
    report.commit_entries_pruned = mgr.prune(next_id, live)

    purge_rids: dict[int, list] = {}  # table name is not hashable-stable; keep per table
    versions = ctx.versions
    for table in db.tables.values():
        # A restart starts an empty store; rebuild it from the ghost
        # slots first or pre-crash versions would leak forever.
        versions.ensure_table(table, ctx)
        to_purge: list = []
        purged_pairs: set = set()
        for tree in table.indexes.values():
            for value, rid, noted_xmax in versions.entries(tree.index_id):
                ver = table.heap.version(rid, ctx)
                if ver is None:
                    # Slot already purged (or page gone): entry can
                    # only ever yield nothing.
                    versions.discard(tree.index_id, (value, rid))
                    report.dead_keys_swept += 1
                    continue
                _, visible, _, cur_xmax = ver
                if visible or cur_xmax == 0:
                    # Either the deleter aborted (undo unghosted the
                    # slot — the tree's CLR re-inserted the key) or we
                    # caught a delete before its ghosting step; sweep
                    # only once the deleter is provably resolved.
                    if mgr.deleter_resolved(noted_xmax, live):
                        versions.discard(tree.index_id, (value, rid))
                        report.dead_keys_swept += 1
                    else:
                        report.dead_keys_kept += 1
                    continue
                if mgr.safe_to_discard(cur_xmax, oldest):
                    versions.discard(tree.index_id, (value, rid))
                    report.dead_keys_swept += 1
                    if purge and rid not in purged_pairs:
                        purged_pairs.add(rid)
                        to_purge.append(rid)
                else:
                    report.dead_keys_kept += 1
        if to_purge:
            purge_rids[table.table_id] = to_purge
            report.details[table.name] = len(to_purge)

    if purge and purge_rids:
        report.slots_purged = _purge_slots(db, ctx, purge_rids)
    db.stats.incr("mvcc.gc_passes")
    db.stats.incr("mvcc.gc_dead_keys_swept", report.dead_keys_swept)
    db.stats.incr("mvcc.gc_slots_purged", report.slots_purged)
    return report


def _purge_slots(
    db: "Database", ctx: "Incarnation", purge_rids: dict[int, list]
) -> int:
    """Physically free ghost slots under a system transaction.

    Redo-only records: a purge is never undone (the version it frees
    is by construction invisible to every snapshot), and replaying it
    is idempotent.  The old row bytes ride along so replay can also
    drop the standby's dead-key entries."""
    tables_by_id = {t.table_id: t for t in db.tables.values()}
    purged = 0
    txn = ctx.txns.begin()
    try:
        for table_id, rids in purge_rids.items():
            table = tables_by_id[table_id]
            for rid in rids:
                page = table.heap._fix_heap_page(rid.page_id, ctx)
                latch = ctx.latches.page_latch(rid.page_id)
                latch.acquire("X")
                try:
                    entry = page.version(rid.slot)
                    if entry is None or entry[1]:
                        continue  # already purged, or resurrected
                    record = update_record(
                        txn.txn_id,
                        RM_HEAP,
                        "purge",
                        rid.page_id,
                        {"rid": rid, "data": entry[0]},
                        undoable=False,
                    )
                    ctx.log_page_change(
                        txn, page, record, lambda: page.remove_record(rid.slot)
                    )
                    table.heap.note_room(page)
                    purged += 1
                finally:
                    latch.release()
                    ctx.buffer.unfix(rid.page_id)
    finally:
        db.commit(txn)
    return purged
