"""The B+-tree object: metadata, traversal (Figure 4), shared helpers.

One :class:`BTree` instance exists per index.  The action routines
(fetch, insert, delete — Figures 5–7) and the structure modification
operations (Figure 8) live in sibling modules and operate on a tree
through the helpers here.

Latch protocol implemented by :meth:`traverse` (§2.1 / Figure 4):

- latch coupling on the way down (parent latch held while the child
  latch is requested);
- leaf latched X for insert/delete, S for fetch;
- at most two page latches held at any moment;
- the tree latch is *not* acquired during traversals, except instantly
  (in S mode) to wait out an unfinished SMO when a nonleaf page is
  ambiguous — nonempty-child test fails or the input key exceeds the
  page's highest key while its SM_Bit is '1'.

Where the paper "unwinds recursion as far as necessary based on noted
page LSNs", this implementation restarts from the root: same
correctness, a few more page visits, honestly counted in
``btree.traversal_restarts``.

The tree is catalog and survives a crash; an operation's pages, latches
and locks belong to its transaction's incarnation (``txn.incarnation``),
which it passes to the page helpers here as ``ctx``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.errors import (
    IndexError_,
    LockNotGrantedError,
    TreeInconsistentError,
)
from repro.common.keys import UserKey, encode_key
from repro.common.rid import RID, IndexKey
from repro.btree.node import IndexPage
from repro.locks.modes import LockDuration, LockMode, tree_lock_name

if TYPE_CHECKING:  # pragma: no cover
    from repro.btree.protocol import LockingProtocol
    from repro.db import Database
    from repro.incarnation import Incarnation
    from repro.storage.latch import Latch
    from repro.txn.transaction import Transaction

#: Sentinel RIDs used to turn a bare value into a full-key search bound.
MIN_RID = RID(0, 0)
MAX_RID = RID(0xFFFFFFFF, 0xFFFF)


class BTree:
    """One B+-tree index."""

    def __init__(
        self,
        ctx: "Database",
        index_id: int,
        name: str,
        table_id: int,
        column: str,
        root_page_id: int,
        unique: bool,
        protocol: "LockingProtocol",
    ) -> None:
        self.ctx = ctx
        self.index_id = index_id
        self.name = name
        self.table_id = table_id
        self.column = column
        self.root_page_id = root_page_id
        self.unique = unique
        self.protocol = protocol

    # -- small helpers -----------------------------------------------------------

    def make_key(self, value: UserKey, rid: RID) -> IndexKey:
        return IndexKey(encode_key(value), rid)

    def fix_page(self, page_id: int, ctx: "Incarnation") -> IndexPage:
        page = ctx.buffer.fix(page_id)  # noqa: RPR001 - ownership transfer: caller unfixes
        if not isinstance(page, IndexPage):
            ctx.buffer.unfix(page_id)
            raise IndexError_(f"page {page_id} is not an index page")
        return page

    def unlatch_unfix(self, page: IndexPage, ctx: "Incarnation") -> None:
        ctx.latches.unlatch_page(page.page_id)
        ctx.buffer.unfix(page.page_id)

    def fix_and_latch(self, page_id: int, mode: str, ctx: "Incarnation") -> IndexPage:
        page = self.fix_page(page_id, ctx)
        try:
            ctx.latches.latch_page(page_id, mode)  # noqa: RPR001 - ownership transfer: caller unlatches
        except BaseException:
            ctx.buffer.unfix(page_id)
            raise
        return page

    # -- tree latch --------------------------------------------------------------
    #
    # §2.1 serializes SMOs with an X tree latch.  §5's extension turns
    # it into a *lock* so leaf-level SMOs can run concurrently (IX) and
    # only nonleaf propagation is exclusive (upgrade to X).  Rolling
    # back transactions always take X so they can never deadlock on the
    # upgrade (§5).  ``tree_latch_mode`` selects the variant.

    def _tree_latch(self, txn: "Transaction | None") -> "Latch":
        """The tree latch in ``txn``'s incarnation (the current one for
        a caller without a transaction)."""
        ctx = self.ctx if txn is None else txn.incarnation
        return ctx.latches.tree_latch(self.index_id)

    @property
    def _lock_mode_smo(self) -> bool:
        return self.ctx.config.tree_latch_mode == "lock"

    def smo_barrier_wait(self, txn: "Transaction | None") -> None:
        """Instant S on the SMO barrier: returns once no SMO is active.

        §2.1's serialized variant uses the X tree latch; §5's variant
        uses a tree *lock* (IX for leaf SMOs, X for nonleaf), so the
        wait becomes an instant S tree-lock request.
        """
        if self._lock_mode_smo and txn is not None:
            txn.incarnation.locks.request(
                txn.txn_id,
                tree_lock_name(self.index_id),
                LockMode.S,
                LockDuration.INSTANT,
            )
        else:
            self._tree_latch(txn).instant("S")

    def smo_barrier_try(self, txn: "Transaction | None") -> bool:
        """Conditional instant S on the SMO barrier (while latches are
        held).  Returns True on success; otherwise the caller must
        release its latches and call :meth:`smo_barrier_wait`."""
        try:
            if self._lock_mode_smo and txn is not None:
                txn.incarnation.locks.request(
                    txn.txn_id,
                    tree_lock_name(self.index_id),
                    LockMode.S,
                    LockDuration.INSTANT,
                    conditional=True,
                )
            else:
                self._tree_latch(txn).instant("S", conditional=True)
            return True
        except LockNotGrantedError:
            return False

    # -- SMO entry/exit -----------------------------------------------------------

    def smo_begin(self, txn: "Transaction") -> None:
        """Enter an SMO.

        Latch variant: X tree latch (all SMOs serialized).  Lock
        variant (§5): IX tree lock for a leaf-level SMO — X when the
        transaction is rolling back, so rollbacks can never hit the
        deadlock-prone IX→X upgrade.
        """
        ctx = txn.incarnation
        if self._lock_mode_smo:
            mode = LockMode.X if txn.in_rollback else LockMode.IX
            ctx.locks.request(
                txn.txn_id, tree_lock_name(self.index_id), mode, LockDuration.MANUAL
            )
        else:
            self._tree_latch(txn).acquire("X")  # noqa: RPR001 - held across the SMO; smo_end releases
        ctx.stats.incr("btree.smo_begun")

    def smo_upgrade_for_nonleaf(self, txn: "Transaction") -> None:
        """Lock variant: upgrade IX→X before a nonleaf-level SMO.  May
        raise DeadlockError (two concurrent upgraders) — the documented
        §5 hazard; the caller's transaction must then roll back, which
        undoes the partial SMO page-oriented."""
        if self._lock_mode_smo:
            ctx = txn.incarnation
            ctx.locks.request(
                txn.txn_id,
                tree_lock_name(self.index_id),
                LockMode.X,
                LockDuration.MANUAL,
            )
            ctx.stats.incr("btree.smo_upgrades")

    def smo_end(self, txn: "Transaction") -> None:
        ctx = txn.incarnation
        if self._lock_mode_smo:
            ctx.locks.release(txn.txn_id, tree_lock_name(self.index_id))
        else:
            self._tree_latch(txn).release()
        ctx.stats.incr("btree.smo_ended")

    # -- POSC for boundary deletes (§3 / Figure 7) ------------------------------------

    def posc_try(self, txn: "Transaction") -> bool:
        """Conditionally establish a point of structural consistency
        (S on the barrier, *held* until released)."""
        try:
            if self._lock_mode_smo:
                txn.incarnation.locks.request(
                    txn.txn_id,
                    tree_lock_name(self.index_id),
                    LockMode.S,
                    LockDuration.MANUAL,
                    conditional=True,
                )
            else:
                self._tree_latch(txn).acquire("S", conditional=True)  # noqa: RPR001 - POSC barrier held until posc_release
            return True
        except LockNotGrantedError:
            return False

    def posc_release(self, txn: "Transaction") -> None:
        if self._lock_mode_smo:
            txn.incarnation.locks.release(txn.txn_id, tree_lock_name(self.index_id))
        else:
            self._tree_latch(txn).release()

    # -- traversal (Figure 4) ---------------------------------------------------------

    def traverse(
        self, key: IndexKey, for_update: bool, txn: "Transaction | None" = None
    ) -> IndexPage:
        """Descend to the leaf that should hold ``key``.

        Returns the leaf fixed and latched (X for updates, S otherwise).
        The parent's latch is held until the leaf's is granted (latch
        coupling) and released before returning: no caller reads the
        parent once it holds the leaf.  Restarts from the root after
        waiting out an ambiguous unfinished SMO.
        """
        ctx = self.ctx if txn is None else txn.incarnation
        stats = ctx.stats
        stats.incr("btree.traversals")
        latches = ctx.latches
        ambiguity_waits = 0
        # Pages visited are counted once per traversal (the finally).
        visited = 0
        try:
            while True:
                node = self.fix_page(self.root_page_id, ctx)
                latches.latch_page(node.page_id, "S")  # noqa: RPR001 - ownership transfer: coupled down, the leaf returned latched
                if node.is_leaf and for_update:
                    # The root is (currently) the leaf; re-latch X and make
                    # sure nothing changed in the gap.
                    noted_lsn = node.page_lsn
                    latches.unlatch_page(node.page_id)
                    latches.latch_page(node.page_id, "X")  # noqa: RPR001 - ownership transfer: the leaf returned latched
                    if node.page_lsn != noted_lsn or not node.is_leaf:
                        self.unlatch_unfix(node, ctx)
                        stats.incr("btree.traversal_restarts")
                        continue
                parent: IndexPage | None = None
                restart = False
                while not node.is_leaf:
                    if not self._trusted(node, key):
                        # Unfinished SMO causes ambiguity.  Try an instant S
                        # on the barrier while still latched: if there is no
                        # SMO in progress the bit is stale (e.g. redo
                        # repeated history and re-set it) and can be reset
                        # lazily, which the paper explicitly allows.
                        if node.sm_bit and self.smo_barrier_try(txn):
                            node.sm_bit = False
                            if self._trusted(node, key):
                                pass  # fall through and descend
                            else:
                                restart = True  # empty page: structural issue
                        else:
                            restart = True
                        if restart:
                            # Let go of everything, wait out the SMO, start
                            # over from the root.
                            if parent is not None:
                                self.unlatch_unfix(parent, ctx)
                            self.unlatch_unfix(node, ctx)
                            self.smo_barrier_wait(txn)
                            stats.incr("btree.traversal_restarts")
                            ambiguity_waits += 1
                            if ambiguity_waits > 50:
                                raise TreeInconsistentError(
                                    f"traversal of index {self.name!r} cannot make "
                                    f"progress at page {node.page_id} — the tree is "
                                    "structurally inconsistent (expected only in "
                                    "ablation runs with safeguards disabled)"
                                )
                            break
                    child_id = node.child_for(key)
                    # Figure 4's order: unlatch the old parent *before*
                    # latching the child, so never more than two page
                    # latches are held (the current node stays latched —
                    # that is the latch coupling).
                    if parent is not None:
                        self.unlatch_unfix(parent, ctx)
                    parent = node
                    child = self.fix_page(child_id, ctx)
                    mode = "X" if (node.level == 1 and for_update) else "S"
                    latches.latch_page(child_id, mode)  # noqa: RPR001 - ownership transfer: coupled down, the leaf returned latched
                    node = child
                    visited += 1
                if restart:
                    continue
                if parent is not None:
                    self.unlatch_unfix(parent, ctx)
                return node
        finally:
            if visited:
                stats.incr("btree.pages_visited", visited)

    def _trusted(self, node: IndexPage, key: IndexKey) -> bool:
        """Figure 4's nonleaf trust test: nonempty and either SM_Bit is
        '0' or the key is within the page's highest stored high key."""
        if not node.child_ids:
            return False
        if not node.sm_bit or not self.ctx.config.enable_sm_bit:
            return True  # (disabled: the ablation traverses blindly, E3)
        max_high = node.max_high_key()
        return max_high is not None and key <= max_high

    # -- next-key location ---------------------------------------------------------
    #
    # Shared by fetch/insert/delete: find the key immediately following
    # ``after`` starting at position ``pos`` of ``leaf``.  May walk
    # right along the leaf chain, latching the next page while holding
    # the current one (Figures 5 and 6).  Returns the next key and the
    # (fixed, latched) page holding it and its position there — or
    # (None, None, -1) for EOF.  The caller must unlatch/unfix the
    # returned page if it is not ``leaf``.

    def find_next_key(
        self, leaf: IndexPage, pos: int, ctx: "Incarnation"
    ) -> tuple[IndexKey | None, IndexPage | None, int]:
        if pos < leaf.key_count():
            return leaf.key_at(pos), leaf, pos
        current = leaf
        while True:
            next_id = current.next_leaf
            if current is not leaf:
                # Release the intermediate hop before latching onward so
                # at most two page latches (the caller's leaf + one) are
                # ever held.  The page reached may have been freed in
                # the gap; the guard below restarts the operation then.
                self.unlatch_unfix(current, ctx)
            if next_id == 0:
                return None, None, -1
            nxt = self.fix_and_latch(next_id, "S", ctx)
            if nxt.index_id != self.index_id or not nxt.is_leaf:
                # Freed (or repurposed) under us mid-SMO: give the
                # caller's whole operation a fresh start.
                from repro.btree.ops_common import RestartOperation

                self.unlatch_unfix(nxt, ctx)
                self.unlatch_unfix(leaf, ctx)
                ctx.stats.incr("btree.next_key_walk_restarts")
                raise RestartOperation()
            ctx.stats.incr("btree.next_leaf_hops")
            if nxt.key_count():
                return nxt.key_at(0), nxt, 0
            current = nxt  # empty page mid-SMO: keep walking

    # -- integrity checking (test support) ----------------------------------------------

    def check_structure(self) -> list[str]:
        """Verify tree invariants; returns a list of violations (empty
        when consistent).  Test/diagnostic helper — takes no latches, so
        only call it quiesced."""
        problems: list[str] = []
        leaves: list[int] = []
        ctx = self.ctx.incarnation

        def walk(page_id: int, low: IndexKey | None, high: IndexKey | None) -> None:
            page = self.fix_page(page_id, ctx)
            try:
                if page.is_leaf:
                    leaves.append(page_id)
                    for key in page.keys:
                        if low is not None and key < low:
                            problems.append(f"leaf {page_id}: key {key} below bound")
                        if high is not None and not (key < high):
                            problems.append(f"leaf {page_id}: key {key} above bound")
                    if page.keys != sorted(page.keys):
                        problems.append(f"leaf {page_id}: keys out of order")
                    if (
                        not page.keys
                        and page_id != self.root_page_id
                        and not page.sm_bit
                    ):
                        problems.append(
                            f"leaf {page_id}: empty, reachable, SM_Bit=0 "
                            "(violates the no-empty-page invariant)"
                        )
                else:
                    if not page.child_ids:
                        problems.append(f"nonleaf {page_id}: no children")
                    if page.high_keys and page.high_keys[-1] is not None:
                        problems.append(
                            f"nonleaf {page_id}: rightmost child has a high key"
                        )
                    child_low = low
                    for child_id, child_high in zip(page.child_ids, page.high_keys):
                        bound = child_high if child_high is not None else high
                        walk(child_id, child_low, bound)
                        child_low = child_high
            finally:
                ctx.buffer.unfix(page_id)

        walk(self.root_page_id, None, None)

        # Leaf chain must visit the same leaves in the same order.
        chained: list[int] = []
        page = self.fix_page(self.root_page_id, ctx)
        while not page.is_leaf:
            child_id = page.child_ids[0]
            ctx.buffer.unfix(page.page_id)
            page = self.fix_page(child_id, ctx)
        while True:
            chained.append(page.page_id)
            next_id = page.next_leaf
            ctx.buffer.unfix(page.page_id)
            if next_id == 0:
                break
            page = self.fix_page(next_id, ctx)
        if chained != leaves:
            problems.append(f"leaf chain {chained} != tree order {leaves}")
        return problems

    def all_keys(self) -> list[IndexKey]:
        """Every key in leaf-chain order (test/diagnostic helper)."""
        out: list[IndexKey] = []
        ctx = self.ctx.incarnation
        page = self.fix_page(self.root_page_id, ctx)
        while not page.is_leaf:
            child_id = page.child_ids[0]
            ctx.buffer.unfix(page.page_id)
            page = self.fix_page(child_id, ctx)
        while True:
            out.extend(page.keys)
            next_id = page.next_leaf
            ctx.buffer.unfix(page.page_id)
            if next_id == 0:
                break
            page = self.fix_page(next_id, ctx)
        return out
