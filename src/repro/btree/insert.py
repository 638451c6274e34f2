"""Key insert (Figure 6 / §2.4).

Flow per attempt:

1. Traverse to the leaf (X latch) with latch coupling.
2. If SM_Bit or Delete_Bit is '1', ensure no SMO is in progress
   (instant S on the SMO barrier — conditionally while latched, else
   release everything and wait), then reset the bits.  The Delete_Bit
   check is the Figure 11 safeguard: consuming space freed by an
   uncommitted delete only after a point of structural consistency.
3. Unlatch the parent.
4. Unique index: if a key with the same value exists, S-lock it for
   commit duration; if it is still there afterwards, report the
   (repeatable) unique-violation (§2.4).
5. Find the next key (maybe on the next leaf, latched while holding the
   current leaf) and request the protocol's insert locks — for
   ARIES/IM an instant-duration X on the next key.
6. If the key fits: log, apply, done.  Otherwise enter the page-split
   path (Figure 8) in :mod:`repro.btree.smo`.

During rollback (``clr_for`` set) this same routine performs the
*logical undo* of a key delete: no locks, no unique check, and the key
insert is logged as a CLR pointing at the undone record's predecessor.
Any page split it triggers is logged with regular records (§3's
documented exception).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.errors import IndexError_, UniqueKeyViolationError
from repro.common.rid import IndexKey
from repro.btree.node import IndexPage
from repro.btree.ops_common import (
    Outcome,
    RestartOperation,
    release_pages,
    request_locks,
    same_value_nearby,
)
from repro.storage.page import PAGE_OVERHEAD
from repro.wal.records import RM_BTREE, LogRecord, clr_record, update_record

if TYPE_CHECKING:  # pragma: no cover
    from repro.btree.tree import BTree
    from repro.txn.transaction import Transaction


class UniqueProbeNeeded(Exception):
    """Internal: the duplicate check cannot be decided from the current
    leaf (insert position 0 of a non-leftmost leaf — an equal-value key
    with a smaller RID could sit at the end of the previous leaf, which
    must not be latched right-to-left).  The caller resolves it with a
    locked Fetch probe."""


def index_insert(
    tree: "BTree",
    txn: "Transaction",
    key: IndexKey,
    clr_for: LogRecord | None = None,
) -> None:
    """Insert ``key``; raises UniqueKeyViolationError on a duplicate
    value in a unique index."""
    ctx = tree.ctx
    ctx.stats.incr("btree.op.insert")
    _check_key_size(tree, key)
    probed = False
    while True:
        leaf = tree.traverse(key, for_update=True, txn=txn)
        # Step 2: Figure 6's bit check.
        config = ctx.config
        blocked = (leaf.sm_bit and config.enable_sm_bit) or (
            leaf.delete_bit and config.enable_delete_bit
        )
        if blocked:
            if tree.smo_barrier_try(txn):
                leaf.sm_bit = False
                leaf.delete_bit = False
                ctx.stats.incr("btree.insert_bit_resets")
            else:
                tree.unlatch_unfix(leaf)
                tree.smo_barrier_wait(txn)
                ctx.stats.incr("btree.insert_bit_waits")
                continue
        try:
            outcome = try_insert_on_leaf(
                tree, txn, leaf, key, clr_for, probed=probed
            )
        except RestartOperation:
            continue
        except UniqueProbeNeeded:
            _unique_probe(tree, txn, key)
            probed = True
            continue
        if outcome is Outcome.DONE:
            return
        # Outcome.NEEDS_SPLIT: all latches have been released.
        from repro.btree.smo import split_and_insert

        split_and_insert(tree, txn, key, clr_for, probed=probed)
        return


def _unique_probe(tree: "BTree", txn: "Transaction", key: IndexKey) -> None:
    """Resolve an undecidable duplicate check with a Fetch-style probe:
    S-lock (commit duration) the key at or after ``key.value``.  If the
    value exists, that is a repeatable unique violation (§2.4); if not,
    the acquired next-key lock blocks any other transaction from
    inserting the value for the rest of this transaction, making the
    not-found verdict durable."""
    from repro.btree.fetch import index_fetch

    tree.ctx.stats.incr("btree.unique_probes")
    result = index_fetch(tree, txn, key.value, comparison="=")
    if result.found:
        raise UniqueKeyViolationError(key.value)


def try_insert_on_leaf(
    tree: "BTree",
    txn: "Transaction",
    leaf: IndexPage,
    key: IndexKey,
    clr_for: LogRecord | None,
    smo_barrier_held: bool = False,
    probed: bool = False,
) -> Outcome:
    """One attempt to insert on an X-latched leaf (steps 4–6).

    Consumes the leaf latch in every outcome.  Raises
    :class:`RestartOperation` if latches had to be released to wait for
    a lock, and :class:`UniqueProbeNeeded` if the duplicate check needs
    the probe path.
    """
    ctx = tree.ctx
    pos, exact = leaf.find_key(key)
    if exact:
        tree.unlatch_unfix(leaf)
        raise IndexError_(f"key {key!r} already present in index {tree.name!r}")
    next_key, next_page, _ = tree.find_next_key(leaf, pos)
    held: list[IndexPage | None] = [leaf, next_page]
    wants_locks = clr_for is None and not txn.in_rollback

    # Staleness guard: if the "next" key is not actually greater than
    # the insert key, this leaf no longer covers the key — it was split
    # between our route decision at the parent and our latch grant (the
    # Figure 3 family of races).  The invariant "first key of the next
    # leaf > every key belonging to this leaf" makes this check exact.
    if next_key is not None and next_key <= key:
        release_pages(tree, held)
        ctx.stats.incr("btree.stale_leaf_restarts")
        raise RestartOperation(smo_barrier_lost=False)

    if tree.unique and wants_locks:
        # Duplicate-value detection (§2.4).  Candidates: the key before
        # the insert position (same page) and the next key (maybe on
        # the next page).  If the insert position is the very start of
        # a non-leftmost leaf, an equal-value key could end the
        # *previous* leaf, which must not be latched right-to-left —
        # resolve with the probe path instead.
        duplicate = None
        before = leaf.key_at(pos - 1) if pos > 0 else None
        if before is not None and before.value == key.value:
            duplicate = before
        elif next_key is not None and next_key.value == key.value:
            duplicate = next_key
        elif pos == 0 and leaf.prev_leaf != 0 and not probed:
            release_pages(tree, held)
            raise UniqueProbeNeeded()
        if duplicate is not None:
            # S commit lock on the equal key; if it is still there once
            # granted, the violation is repeatable.
            spec = tree.protocol.unique_check_lock(tree, duplicate)
            request_locks(tree, txn, [spec], held, smo_barrier_held)
            release_pages(tree, held)
            raise UniqueKeyViolationError(key.value)

    if wants_locks:
        value_exists = same_value_nearby(leaf, pos, key.value, next_key)
        specs = tree.protocol.insert_locks(tree, key, next_key, value_exists)
        request_locks(tree, txn, specs, held, smo_barrier_held)
    # Figure 6: unlatch the next page after acquiring the next-key lock.
    if next_page is not None and next_page is not leaf:
        tree.unlatch_unfix(next_page)

    if not leaf.has_room_for_key(key, ctx.config.page_size):
        tree.unlatch_unfix(leaf)
        return Outcome.NEEDS_SPLIT

    _log_and_apply_insert(tree, txn, leaf, key, clr_for)
    tree.unlatch_unfix(leaf)
    return Outcome.DONE


def _log_and_apply_insert(
    tree: "BTree",
    txn: "Transaction",
    leaf: IndexPage,
    key: IndexKey,
    clr_for: LogRecord | None,
) -> None:
    ctx = tree.ctx
    payload = {"index_id": tree.index_id, "key": key}
    if clr_for is None:
        record = update_record(txn.txn_id, RM_BTREE, "insert_key", leaf.page_id, payload)
    else:
        record = clr_record(
            txn.txn_id,
            RM_BTREE,
            "insert_key_c",
            leaf.page_id,
            payload,
            undo_next_lsn=clr_for.prev_lsn,
        )
    ctx.log_page_change(txn, leaf, record, lambda: leaf.insert_key(key))
    ctx.stats.incr("btree.keys_inserted")
    ctx.failpoints.hit("btree.insert.after_log")


def _check_key_size(tree: "BTree", key: IndexKey) -> None:
    """A key must fit on a freshly split page with at least one sibling
    key, or splitting could never make room."""
    limit = (tree.ctx.config.page_size - PAGE_OVERHEAD) // 4
    if key.encoded_size() > limit:
        raise IndexError_(
            f"key of {key.encoded_size()} bytes exceeds the per-key limit "
            f"of {limit} bytes for {tree.ctx.config.page_size}-byte pages"
        )
