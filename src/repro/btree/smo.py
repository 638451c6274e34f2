"""Structure modification operations (Figures 8, 9, 10).

Every SMO runs under the SMO barrier (the X tree latch of §2.1, or the
§5 tree lock) and inside a **nested top action**: its log records are
regular undo-redo records, and a dummy CLR written at the end makes a
later rollback of the enclosing transaction skip them (Figure 9/10).
A crash *before* the dummy CLR leaves the records undoable, so restart
undo restores structural consistency page-oriented — which is safe
precisely because the barrier plus SM_Bits kept everyone else from
modifying the affected pages meanwhile (§3).

Ordering (Figure 8):

- a split happens *before* the insert that needs it, so the insert's
  record lands after the dummy CLR and is undone on rollback while the
  split survives;
- a page delete happens *after* the key delete that empties the page,
  with the dummy CLR pointing at the key-delete record, so the key
  delete is undone (logically — the page is gone) while the page
  delete survives.

Splits move the higher keys right (§2.1).  Propagation is bottom-up:
leaf-level latches are released before any higher-level page is
latched, which is why traversers can momentarily see an inconsistent
tree and why the SM_Bit exists (Figure 3).

Simplification vs. the paper: Figure 8 pre-fixes the needed pages in
the buffer pool and acquires the tree latch conditionally while still
holding the leaf latch, to shorten the latch hold.  This implementation
releases its latches and (re)enters the barrier unconditionally, then
re-traverses — identical behaviour, a few more page visits, honestly
counted.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.errors import IndexError_, KeyNotFoundError
from repro.common.rid import IndexKey
from repro.btree.insert import try_insert_on_leaf
from repro.btree.node import IndexPage
from repro.btree.ops_common import Outcome, RestartOperation
from repro.btree.tree import BTree
from repro.wal.records import RM_BTREE, LogRecord, clr_record, update_record

if TYPE_CHECKING:  # pragma: no cover
    from repro.txn.transaction import Transaction


# ---------------------------------------------------------------------------
# Logging helpers
# ---------------------------------------------------------------------------


def _log_apply(
    tree: BTree,
    txn: "Transaction",
    page: IndexPage,
    op: str,
    payload: dict,
    apply,
) -> int:
    """Write one SMO update record and apply it to the latched page."""
    record = update_record(txn.txn_id, RM_BTREE, op, page.page_id, payload)
    lsn = tree.ctx.txns.log_for(txn, record)
    apply()
    page.page_lsn = lsn
    tree.ctx.buffer.mark_dirty(page.page_id, lsn)
    return lsn


def _log_set_page(
    tree: BTree, txn: "Transaction", page: IndexPage, mutate
) -> int:
    """Full before/after state change of one (small) page."""
    before = page.to_payload()
    mutate()
    after = page.to_payload()
    record = update_record(
        txn.txn_id,
        RM_BTREE,
        "set_page",
        page.page_id,
        {"before": before, "after": after},
    )
    lsn = tree.ctx.txns.log_for(txn, record)
    page.page_lsn = lsn
    tree.ctx.buffer.mark_dirty(page.page_id, lsn)
    return lsn


def freed_payload(page_id: int) -> dict:
    """Body of a deallocated page (index_id 0 marks it free; page ids
    are never reused, so free pages are inert)."""
    ghost = IndexPage(page_id, 0, 0)
    return ghost.to_payload()


# ---------------------------------------------------------------------------
# Split path (insert-triggered, Figures 8 and 9)
# ---------------------------------------------------------------------------


def split_and_insert(
    tree: BTree,
    txn: "Transaction",
    key: IndexKey,
    clr_for: LogRecord | None,
    probed: bool = False,
) -> None:
    """Figure 8, split case: under the SMO barrier, split (as a nested
    top action) until the key fits, then insert it — still under the
    barrier, so the instant next-key lock is taken on a stable tree."""
    from repro.btree.insert import UniqueProbeNeeded, _unique_probe

    ctx = tree.ctx
    tree.smo_begin(txn)
    barrier_held = True
    try:
        while True:
            if not barrier_held:
                tree.smo_begin(txn)
                barrier_held = True
            descent = tree.traverse(key, for_update=True, txn=txn)
            leaf = descent.leaf
            descent.unlatch_parent(tree)
            # Holding the barrier is a POSC: the bits can be reset.
            leaf.sm_bit = False
            leaf.delete_bit = False
            try:
                outcome = try_insert_on_leaf(
                    tree, txn, leaf, key, clr_for,
                    smo_barrier_held=True, probed=probed,
                )
            except RestartOperation as restart:
                if restart.smo_barrier_lost:
                    barrier_held = False
                continue
            except UniqueProbeNeeded:
                # No lock may be requested unconditionally while the
                # barrier (a latch) is held: drop it around the probe.
                tree.smo_end(txn)
                barrier_held = False
                _unique_probe(tree, txn, key)
                probed = True
                continue
            if outcome is Outcome.DONE:
                return
            # Outcome.NEEDS_SPLIT (leaf latch already released).
            _split_leaf_covering(tree, txn, key)
            ctx.stats.incr("btree.splits_for_insert")
    finally:
        if barrier_held:
            tree.smo_end(txn)


def _split_leaf_covering(tree: BTree, txn: "Transaction", search: IndexKey) -> None:
    """Re-locate the full leaf covering ``search`` and split it as one
    nested top action.  No-ops if room appeared meanwhile."""
    descent = tree.traverse(search, for_update=True, txn=txn)
    leaf = descent.leaf
    descent.unlatch_parent(tree)
    if len(leaf.keys) < 2:
        # Cannot split a page with fewer than two keys; the caller's
        # size guard makes this unreachable for legal keys.
        tree.unlatch_unfix(leaf)
        raise IndexError_(
            f"page {leaf.page_id} too small to split (keys={len(leaf.keys)})"
        )
    if leaf.page_id == tree.root_page_id:
        # Growing the root is a nonleaf-level SMO: the §5 lock variant
        # upgrades to X first (no latches may be held across the lock
        # request).
        tree.unlatch_unfix(leaf)
        tree.smo_upgrade_for_nonleaf(txn)
        descent = tree.traverse(search, for_update=True, txn=txn)
        leaf = descent.leaf
        descent.unlatch_parent(tree)
        if leaf.page_id == tree.root_page_id:
            tree.unlatch_unfix(leaf)
            _grow_root(tree, txn)
        else:
            tree.unlatch_unfix(leaf)
        descent = tree.traverse(search, for_update=True, txn=txn)
        leaf = descent.leaf
        descent.unlatch_parent(tree)
    if not leaf.has_room_for_key(search, tree.ctx.config.page_size):
        _perform_split(tree, txn, leaf)
    else:
        tree.unlatch_unfix(leaf)


def _grow_root(tree: BTree, txn: "Transaction") -> None:
    """Move the root's contents into a fresh child so the root page id
    never changes; the root becomes a one-child nonleaf one level up.
    Logged as part of the enclosing NTA."""
    ctx = tree.ctx
    root = tree.fix_and_latch(tree.root_page_id, "X")
    tree.ctx.txns.begin_nta(txn)
    try:
        child_id = ctx.disk.allocate_page_id()
        child = IndexPage(child_id, tree.index_id, root.level)
        child.replace_entries(root.keys, root.child_ids, root.high_keys)
        child.sm_bit = True
        ctx.buffer.fix_new(child)  # noqa: RPR001 - unfixed below once formatted and logged
        record = update_record(
            txn.txn_id,
            RM_BTREE,
            "page_format",
            child_id,
            {"page": child.to_payload()},
        )
        lsn = ctx.txns.log_for(txn, record)
        child.page_lsn = lsn
        ctx.buffer.mark_dirty(child_id, lsn)
        ctx.buffer.unfix(child_id)

        def make_root_nonleaf() -> None:
            root.level = root.level + 1
            root.replace_entries(child_ids=[child_id], high_keys=[None])
            root.sm_bit = True
            root.delete_bit = False

        _log_set_page(tree, txn, root, make_root_nonleaf)
        ctx.failpoints.hit("smo.root_grow.before_dummy_clr")
        ctx.txns.end_nta(txn)
    except BaseException:
        ctx.txns.abandon_nta(txn)
        raise
    finally:
        tree.unlatch_unfix(root)
    _maybe_reset_bits(tree, [tree.root_page_id, child_id])
    ctx.stats.incr("btree.root_grows")


def _perform_split(tree: BTree, txn: "Transaction", leaf: IndexPage) -> None:
    """Split one X-latched non-root page (leaf or nonleaf) to the right
    as a nested top action (Figure 9).  Consumes the latch."""
    ctx = tree.ctx
    ctx.txns.begin_nta(txn)
    affected = [leaf.page_id]
    try:
        if leaf.is_leaf:
            separator, right_id = _split_leaf_level(tree, txn, leaf, affected)
        else:
            separator, right_id = _split_nonleaf_level(tree, txn, leaf, affected)
        left_id = leaf.page_id
        level_above = leaf.level + 1
        tree.unlatch_unfix(leaf)
        ctx.failpoints.hit("smo.split.after_leaf_level")
        _propagate_split(
            tree, txn, left_id, right_id, separator, level_above, affected
        )
        ctx.failpoints.hit("smo.split.before_dummy_clr")
        ctx.txns.end_nta(txn)
    except BaseException:
        ctx.txns.abandon_nta(txn)
        raise
    _maybe_reset_bits(tree, affected)
    ctx.stats.incr("btree.page_splits")


def _split_point(page: IndexPage) -> int:
    """Index of the first entry that moves right: balance by byte size."""
    if page.is_leaf:
        sizes = [k.encoded_size() + 4 for k in page.keys]
    else:
        sizes = [
            10 + (h.encoded_size() if h is not None else 0) for h in page.high_keys
        ]
    total = sum(sizes)
    acc = 0
    for position, size in enumerate(sizes):
        acc += size
        if acc * 2 >= total:
            split_at = position + 1
            break
    else:  # pragma: no cover - sizes is never empty here
        split_at = len(sizes) // 2
    return min(max(split_at, 1), len(sizes) - 1)


def _split_leaf_level(
    tree: BTree, txn: "Transaction", leaf: IndexPage, affected: list[int]
) -> tuple[IndexKey, int]:
    """Leaf-level half of a split: format the right page, shrink the
    left, fix the right neighbour's back pointer."""
    ctx = tree.ctx
    split_at = _split_point(leaf)
    moved = leaf.keys[split_at:]
    separator = moved[0]
    old_next = leaf.next_leaf

    right_id = ctx.disk.allocate_page_id()
    right = IndexPage(right_id, tree.index_id, 0)
    right.replace_entries(moved)
    right.prev_leaf = leaf.page_id
    right.next_leaf = old_next
    right.sm_bit = True
    ctx.buffer.fix_new(right)  # noqa: RPR001 - unfixed below once formatted and logged
    affected.append(right_id)
    record = update_record(
        txn.txn_id, RM_BTREE, "page_format", right_id, {"page": right.to_payload()}
    )
    lsn = ctx.txns.log_for(txn, record)
    right.page_lsn = lsn
    ctx.buffer.mark_dirty(right_id, lsn)
    ctx.buffer.unfix(right_id)

    def shrink() -> None:
        leaf.truncate(split_at)
        leaf.next_leaf = right_id
        leaf.sm_bit = True

    _log_apply(
        tree,
        txn,
        leaf,
        "leaf_shrink",
        {
            "index_id": tree.index_id,
            "moved": list(moved),
            "old_next": old_next,
            "new_next": right_id,
            "sm_bit_before": leaf.sm_bit,
        },
        shrink,
    )
    ctx.failpoints.hit("smo.split.after_shrink")

    if old_next:
        # The old right neighbour's back pointer (latched on its own:
        # left-to-right order, never more than two page latches).
        neighbour = tree.fix_and_latch(old_next, "X")
        affected.append(old_next)

        def relink() -> None:
            neighbour.prev_leaf = right_id

        _log_apply(
            tree,
            txn,
            neighbour,
            "chain_prev",
            {"before": leaf.page_id, "after": right_id},
            relink,
        )
        tree.unlatch_unfix(neighbour)
    return separator, right_id


def _split_nonleaf_level(
    tree: BTree, txn: "Transaction", page: IndexPage, affected: list[int]
) -> tuple[IndexKey, int]:
    """Nonleaf split: left keeps entries[:m] with its last high key
    pushed up as the separator (and cleared to None, since the
    rightmost child of any page is unbounded within it)."""
    ctx = tree.ctx
    split_at = _split_point(page)
    separator = page.high_keys[split_at - 1]
    assert separator is not None, "interior split point always has a high key"

    right_id = ctx.disk.allocate_page_id()
    right = IndexPage(right_id, tree.index_id, page.level)
    right.replace_entries(
        child_ids=page.child_ids[split_at:], high_keys=page.high_keys[split_at:]
    )
    right.sm_bit = True
    ctx.buffer.fix_new(right)  # noqa: RPR001 - unfixed below once formatted and logged
    affected.append(right_id)
    record = update_record(
        txn.txn_id, RM_BTREE, "page_format", right_id, {"page": right.to_payload()}
    )
    lsn = ctx.txns.log_for(txn, record)
    right.page_lsn = lsn
    ctx.buffer.mark_dirty(right_id, lsn)
    ctx.buffer.unfix(right_id)

    def shrink() -> None:
        page.truncate(split_at)
        page.sm_bit = True

    _log_set_page(tree, txn, page, shrink)
    return separator, right_id


def _propagate_split(
    tree: BTree,
    txn: "Transaction",
    left_id: int,
    right_id: int,
    separator: IndexKey,
    level: int,
    affected: list[int],
) -> None:
    """Insert the separator entry into the parent level, splitting
    upward as needed (bottom-up, lower latches already released)."""
    ctx = tree.ctx
    while True:
        parent = _descend_to_level(tree, separator, level)
        if left_id not in parent.child_ids:
            # The parent itself split since we looked (by us, one loop
            # iteration ago): the entry belongs in the right sibling.
            tree.unlatch_unfix(parent)
            raise IndexError_(
                f"propagation lost child {left_id} at level {level}"
            )
        if parent.has_room_for_child(separator, ctx.config.page_size):
            affected.append(parent.page_id)

            def link() -> None:
                parent.insert_split_entry(left_id, right_id, separator)
                parent.sm_bit = True

            _log_set_page(tree, txn, parent, link)
            tree.unlatch_unfix(parent)
            ctx.failpoints.hit("smo.split.after_propagation")
            return
        # Parent is full: split it first — a nonleaf-level SMO, so the
        # §5 lock variant upgrades IX→X.  No lock request may be made
        # while holding a latch (§4): release the parent latch first,
        # upgrade, then re-descend under full exclusion.  The upgrade
        # may raise DeadlockError (two concurrent upgraders); the
        # caller's rollback then undoes the partial SMO page-oriented.
        is_root = parent.page_id == tree.root_page_id
        tree.unlatch_unfix(parent)
        tree.smo_upgrade_for_nonleaf(txn)
        parent = _descend_to_level(tree, separator, level)
        if parent.has_room_for_child(separator, ctx.config.page_size):
            tree.unlatch_unfix(parent)
            continue  # someone made room meanwhile; retry the insert
        is_root = parent.page_id == tree.root_page_id
        if is_root:
            tree.unlatch_unfix(parent)
            _grow_root(tree, txn)
            continue
        up_separator, up_right = _split_nonleaf_level(tree, txn, parent, affected)
        parent_id = parent.page_id
        tree.unlatch_unfix(parent)
        _propagate_split(
            tree, txn, parent_id, up_right, up_separator, level + 1, affected
        )
        # Loop: re-descend, the target parent now has room (or splits
        # again in the pathological huge-separator case).


def _descend_to_level(tree: BTree, key: IndexKey, level: int) -> IndexPage:
    """Latch-coupled descent stopping at ``level``; returns that page
    X-latched and fixed.  Only used under the SMO barrier."""
    node = tree.fix_page(tree.root_page_id)
    mode = "X" if node.level == level else "S"
    tree.latch(node, mode)
    while node.level != level:
        if node.level < level:
            tree.unlatch_unfix(node)
            raise IndexError_(f"no level {level} on the path to {key!r}")
        child_id = node.child_for(key)
        child = tree.fix_page(child_id)
        tree.latch(child, "X" if child.level == level else "S")
        tree.unlatch_unfix(node)
        node = child
    return node


# ---------------------------------------------------------------------------
# Page-deletion path (delete-triggered, Figures 8 and 10)
# ---------------------------------------------------------------------------


def delete_with_page_delete(
    tree: BTree,
    txn: "Transaction",
    key: IndexKey,
    clr_for: LogRecord | None,
) -> None:
    """Figure 8, page-delete case: under the SMO barrier, delete the key
    (logged *outside* the NTA so it stays undoable — Figure 10), then
    delete the emptied page as a nested top action."""
    ctx = tree.ctx
    tree.smo_begin(txn)
    # Page deletion touches neighbour chains and the parent; under the
    # §5 lock variant we run it fully exclusive (upgrade IX→X before
    # any latch is held).  Concurrent leaf *splits* remain the case the
    # lock variant parallelizes.
    tree.smo_upgrade_for_nonleaf(txn)
    try:
        descent = tree.traverse(key, for_update=True, txn=txn)
        leaf = descent.leaf
        descent.unlatch_parent(tree)
        pos, found = leaf.find_key(key)
        if not found:
            tree.unlatch_unfix(leaf)
            raise KeyNotFoundError(f"key {key!r} not in index {tree.name!r}")
        leaf.sm_bit = False  # barrier held ⇒ POSC
        leaf.delete_bit = False
        # The key delete itself (holding the barrier is a POSC, so no
        # Delete_Bit is needed).
        payload = {"index_id": tree.index_id, "key": key, "set_delete_bit": False}
        if clr_for is None:
            record = update_record(
                txn.txn_id, RM_BTREE, "delete_key", leaf.page_id, payload
            )
        else:
            record = clr_record(
                txn.txn_id,
                RM_BTREE,
                "delete_key_c",
                leaf.page_id,
                payload,
                undo_next_lsn=clr_for.prev_lsn,
            )
        lsn = ctx.txns.log_for(txn, record)
        leaf.remove_key(key)
        leaf.page_lsn = lsn
        ctx.buffer.mark_dirty(leaf.page_id, lsn)
        ctx.stats.incr("btree.keys_deleted")
        if leaf.keys or leaf.page_id == tree.root_page_id:
            # Someone refilled the page before we got the barrier (or
            # it is the root, which may stay empty): plain delete.
            tree.unlatch_unfix(leaf)
            return
        ctx.failpoints.hit("smo.pagedel.after_key_delete")
        ctx.txns.begin_nta(txn)
        try:
            _perform_page_delete(tree, txn, leaf, route_key=key)
            ctx.failpoints.hit("smo.pagedel.before_dummy_clr")
            ctx.txns.end_nta(txn)
        except BaseException:
            ctx.txns.abandon_nta(txn)
            raise
        ctx.stats.incr("btree.page_deletes")
    finally:
        tree.smo_end(txn)


def _perform_page_delete(
    tree: BTree, txn: "Transaction", leaf: IndexPage, route_key: IndexKey
) -> None:
    """Delete one empty, X-latched, non-root leaf (consumes the latch):
    mark it, unchain it, remove it from its parent (recursing upward if
    the parent empties), then free it."""
    ctx = tree.ctx
    leaf_id = leaf.page_id
    prev_id, next_id = leaf.prev_leaf, leaf.next_leaf

    def mark() -> None:
        leaf.sm_bit = True

    _log_set_page(tree, txn, leaf, mark)
    tree.unlatch_unfix(leaf)
    ctx.failpoints.hit("smo.pagedel.after_mark")

    if prev_id:
        # The recorded predecessor may be stale if a split slid a new
        # page in between before we got the barrier; walk right to the
        # true predecessor (single latch at a time).
        pred_id = prev_id
        neighbour = None
        while pred_id:
            candidate = tree.fix_and_latch(pred_id, "X")
            if candidate.index_id == tree.index_id and candidate.next_leaf == leaf_id:
                neighbour = candidate
                break
            pred_id = candidate.next_leaf if candidate.index_id == tree.index_id else 0
            tree.unlatch_unfix(candidate)
        if neighbour is not None:

            def forward() -> None:
                neighbour.next_leaf = next_id

            _log_apply(
                tree,
                txn,
                neighbour,
                "chain_next",
                {"before": leaf_id, "after": next_id},
                forward,
            )
            prev_id = neighbour.page_id
            tree.unlatch_unfix(neighbour)
    if next_id:
        neighbour = tree.fix_and_latch(next_id, "X")

        def backward() -> None:
            neighbour.prev_leaf = prev_id

        _log_apply(
            tree,
            txn,
            neighbour,
            "chain_prev",
            {"before": leaf_id, "after": prev_id},
            backward,
        )
        tree.unlatch_unfix(neighbour)
    ctx.failpoints.hit("smo.pagedel.after_unchain")

    _remove_from_parent(tree, txn, leaf_id, level=1, route_key=route_key)

    page = tree.fix_and_latch(leaf_id, "X")

    def free() -> None:
        page.load_payload(freed_payload(leaf_id))

    _log_set_page(tree, txn, page, free)
    tree.unlatch_unfix(page)


def _remove_from_parent(
    tree: BTree, txn: "Transaction", child_id: int, level: int, route_key: IndexKey
) -> None:
    """Remove the entry for a deleted child at ``level``, cascading
    upward when the parent empties, collapsing the root when it is left
    with a single child."""
    ctx = tree.ctx
    parent = _descend_to_level(tree, route_key, level)

    def unlink() -> None:
        parent.remove_child(child_id)
        parent.sm_bit = True

    _log_set_page(tree, txn, parent, unlink)
    parent_id = parent.page_id
    is_root = parent_id == tree.root_page_id
    empty = parent.is_empty()
    single_child_root = is_root and len(parent.child_ids) == 1
    tree.unlatch_unfix(parent)

    if empty and not is_root:
        tree.smo_upgrade_for_nonleaf(txn)
        _remove_from_parent(tree, txn, parent_id, level + 1, route_key)
        page = tree.fix_and_latch(parent_id, "X")

        def free() -> None:
            page.load_payload(freed_payload(parent_id))

        _log_set_page(tree, txn, page, free)
        tree.unlatch_unfix(page)
    elif single_child_root:
        tree.smo_upgrade_for_nonleaf(txn)
        _shrink_root(tree, txn)


def _shrink_root(tree: BTree, txn: "Transaction") -> None:
    """Collapse a one-child root: the root absorbs its only child's
    contents (height decreases); the child is freed.  Loops in case the
    absorbed child is itself a one-child nonleaf."""
    ctx = tree.ctx
    while True:
        root = tree.fix_and_latch(tree.root_page_id, "X")
        if root.is_leaf or len(root.child_ids) != 1:
            tree.unlatch_unfix(root)
            return
        child_id = root.child_ids[0]
        child = tree.fix_and_latch(child_id, "X")

        def absorb() -> None:
            payload = child.to_payload()
            payload["sm_bit"] = True
            payload["delete_bit"] = False
            root.load_payload(payload)

        _log_set_page(tree, txn, root, absorb)

        def free() -> None:
            child.load_payload(freed_payload(child_id))

        _log_set_page(tree, txn, child, free)
        tree.unlatch_unfix(child)
        tree.unlatch_unfix(root)
        ctx.stats.incr("btree.root_shrinks")


# ---------------------------------------------------------------------------
# Bit reset (optional, unlogged — see node.py docstring)
# ---------------------------------------------------------------------------


def _maybe_reset_bits(tree: BTree, page_ids: list[int]) -> None:
    if not tree.ctx.config.reset_sm_bits_after_smo:
        return
    for page_id in dict.fromkeys(page_ids):
        try:
            page = tree.fix_and_latch(page_id, "X")
        except Exception:  # noqa: BLE001,RPR005 - page may already be freed
            continue
        if isinstance(page, IndexPage) and page.index_id == tree.index_id:
            page.sm_bit = False
        tree.unlatch_unfix(page)
