"""Key delete (Figure 7 / §2.5).

Flow per attempt:

1. Traverse to the leaf (X latch).
2. If SM_Bit is '1', wait out the in-progress SMO (instant S barrier)
   and reset it (Figure 7).
3. Unlatch the parent; find the next key (maybe on the next leaf) and
   request the protocol's delete locks — for ARIES/IM an X lock of
   *commit* duration on the next key: the deleter's trace that warns
   other transactions about the uncommitted delete (§2.6).
4. If the delete would empty the page, enter the page-deletion path
   (Figure 8) in :mod:`repro.btree.smo` instead.
5. If the key is the smallest or largest on the page (a boundary key),
   establish a point of structural consistency first: S on the SMO
   barrier, *held until the delete completes* (§3, third reason for
   logical undo — the leaf must remain reachable from the root if this
   delete has to be undone after a crash).
6. Log and apply; the Delete_Bit is set (and folded into the log
   record for redo) unless the POSC made it unnecessary.

During rollback (``clr_for`` set) this routine performs the logical
undo of a key insert: no locks, delete logged as a CLR; a page delete
it triggers is logged with regular records (§3's exception).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.errors import KeyNotFoundError
from repro.common.rid import IndexKey
from repro.btree.node import IndexPage
from repro.btree.ops_common import (
    RestartOperation,
    request_locks,
    same_value_nearby,
)
from repro.wal.records import RM_BTREE, LogRecord, clr_record, update_record

if TYPE_CHECKING:  # pragma: no cover
    from repro.btree.tree import BTree
    from repro.txn.transaction import Transaction


def index_delete(
    tree: "BTree",
    txn: "Transaction",
    key: IndexKey,
    clr_for: LogRecord | None = None,
) -> None:
    """Delete the exact key (value, RID)."""
    ctx = tree.ctx
    ctx.stats.incr("btree.op.delete")
    config = ctx.config
    not_found_retries = 0
    while True:
        leaf = tree.traverse(key, for_update=True, txn=txn)
        pos, found = leaf.find_key(key)
        if not found:
            # The key may have been carried to the right sibling by a
            # split that completed between our route decision and our
            # latch grant.  Wait out any SMO and re-route once before
            # concluding the key is genuinely missing.
            tree.unlatch_unfix(leaf)
            if not_found_retries == 0:
                not_found_retries += 1
                tree.smo_barrier_wait(txn)
                ctx.stats.incr("btree.stale_leaf_restarts")
                continue
            raise KeyNotFoundError(f"key {key!r} not in index {tree.name!r}")
        # Step 2: even an unambiguous leaf waits for an unfinished SMO
        # before modifying (§3: a premature delete could commit and then
        # be wiped out by the SMO's page-oriented undo).
        if leaf.sm_bit and config.enable_sm_bit:
            if tree.smo_barrier_try(txn):
                leaf.sm_bit = False
            else:
                tree.unlatch_unfix(leaf)
                tree.smo_barrier_wait(txn)
                ctx.stats.incr("btree.delete_bit_waits")
                continue
        try:
            next_key, next_page, _ = tree.find_next_key(leaf, pos + 1)
            held: list[IndexPage | None] = [leaf, next_page]
            if clr_for is None and not txn.in_rollback:
                last_instance = not same_value_nearby(leaf, pos, key.value, next_key)
                specs = tree.protocol.delete_locks(tree, key, next_key, last_instance)
                request_locks(tree, txn, specs, held)
        except RestartOperation:
            continue
        if next_page is not None and next_page is not leaf:
            tree.unlatch_unfix(next_page)

        if leaf.key_count() == 1 and leaf.page_id != tree.root_page_id:
            # Step 4: the page would become empty — Figure 8's page
            # deletion path (re-validates under the SMO barrier).
            tree.unlatch_unfix(leaf)
            from repro.btree.smo import delete_with_page_delete

            delete_with_page_delete(tree, txn, key, clr_for)
            return

        # Step 5: boundary-key POSC.
        boundary = pos == 0 or pos == leaf.key_count() - 1
        posc_held = False
        if (
            boundary
            and config.enable_boundary_delete_posc
            and clr_for is None
            and not txn.in_rollback
        ):
            if tree.posc_try(txn):
                posc_held = True
            else:
                tree.unlatch_unfix(leaf)
                # Wait for structural consistency without holding any
                # latch, then re-derive everything.
                tree.smo_barrier_wait(txn)
                ctx.stats.incr("btree.boundary_posc_waits")
                continue

        _log_and_apply_delete(tree, txn, leaf, key, clr_for, posc_held)
        tree.unlatch_unfix(leaf)
        if posc_held:
            tree.posc_release(txn)
        return


def _log_and_apply_delete(
    tree: "BTree",
    txn: "Transaction",
    leaf: IndexPage,
    key: IndexKey,
    clr_for: LogRecord | None,
    posc_held: bool,
) -> None:
    ctx = tree.ctx
    # Figure 7: the Delete_Bit warns later space consumers (Figure 11);
    # it is unnecessary when the POSC is held for this delete, and a CLR
    # delete can never itself be undone.
    set_bit = (
        ctx.config.enable_delete_bit
        and not posc_held
        and clr_for is None
    )
    payload = {"index_id": tree.index_id, "key": key, "set_delete_bit": set_bit}
    if clr_for is None:
        record = update_record(txn.txn_id, RM_BTREE, "delete_key", leaf.page_id, payload)
    else:
        record = clr_record(
            txn.txn_id,
            RM_BTREE,
            "delete_key_c",
            leaf.page_id,
            payload,
            undo_next_lsn=clr_for.prev_lsn,
        )

    def apply() -> None:
        leaf.remove_key(key)
        if set_bit:
            leaf.delete_bit = True

    ctx.log_page_change(txn, leaf, record, apply)
    ctx.stats.incr("btree.keys_deleted")
    ctx.failpoints.hit("btree.delete.after_log")
