"""Fetch and Fetch Next (Figures 5 and §2.3).

Fetch locates the requested key or the next higher one (possibly on the
next leaf, latched while the first leaf's latch is held), locks it —
or the index's EOF lock name when the scan runs off the right edge —
for commit duration in S mode, and returns.  Locking the *next* key on
a miss is what makes "not found" repeatable (the phantom problem, §2.2)
and what trips over an uncommitted delete's commit-duration X lock.

Fetch Next (§2.3) keeps a cursor: the leaf page, position, and page LSN
noted at the previous call.  If the page LSN is unchanged the next key
is simply the next slot; otherwise the cursor repositions with a fresh
traversal, exactly as the paper prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.common.errors import PageNotFoundError
from repro.common.rid import IndexKey
from repro.btree.node import IndexPage
from repro.btree.ops_common import RestartOperation, release_pages, request_locks
from repro.btree.tree import MAX_RID, MIN_RID

if TYPE_CHECKING:  # pragma: no cover
    from repro.btree.tree import BTree
    from repro.txn.transaction import Transaction


@dataclass
class FetchResult:
    """Outcome of a Fetch / Fetch Next call."""

    found: bool
    key: IndexKey | None
    eof: bool
    #: Name of the lock taken on the current key (or the EOF name); a
    #: cursor-stability caller releases it when the cursor moves on.
    lock_name: tuple | None = None

    @property
    def rid(self):
        return self.key.rid if self.key is not None else None


@dataclass
class Cursor:
    """Range-scan position (§2.3)."""

    tree: "BTree"
    current_key: IndexKey | None = None
    leaf_id: int = 0
    page_lsn: int = 0
    pos: int = -1
    at_eof: bool = False

    def note_position(self, page: IndexPage, pos: int, key: IndexKey) -> None:
        """Record where a key was returned from, while its page latch is
        still held (the LSN must be noted under the latch)."""
        self.leaf_id = page.page_id
        self.page_lsn = page.page_lsn
        self.pos = pos
        self.current_key = key
        self.at_eof = False


def _search_bound(value: bytes, comparison: str) -> IndexKey:
    """Full-key search bound for a value-level comparison."""
    if comparison in ("=", ">="):
        return IndexKey(value, MIN_RID)
    if comparison == ">":
        return IndexKey(value, MAX_RID)
    raise ValueError(f"unsupported fetch comparison {comparison!r}")


def index_fetch(
    tree: "BTree",
    txn: "Transaction",
    value: bytes,
    comparison: str = "=",
    cursor: Cursor | None = None,
    isolation: str = "rr",
) -> FetchResult:
    """Figure 5.  ``comparison`` is the starting condition (=, >=, >).

    Pass a :class:`Cursor` to open a range scan; its position is set to
    the returned key so :func:`index_fetch_next` can continue from it.
    ``isolation`` is "rr" (repeatable read, default), "cs" (cursor
    stability: the current-key lock is manual-duration and the caller
    releases it via ``result.lock_name`` when moving off the record),
    or "snapshot" (MVCC read: latches only, **no lock requests** —
    visibility is the caller's job, via the heap version stamps).
    """
    ctx = tree.ctx
    ctx.stats.incr("btree.op.fetch")
    bound = _search_bound(value, comparison)
    while True:
        descent = tree.traverse(bound, for_update=False, txn=txn)
        leaf = descent.leaf
        descent.unlatch_parent(tree)
        pos, _ = leaf.find_key(bound)
        try:
            candidate, cand_page, cand_pos = tree.find_next_key(leaf, pos)
            held = [leaf, cand_page]
            if candidate is not None and candidate < bound:
                _wait_out_split(tree, txn, held)
                continue
            lock_name = None
            if isolation != "snapshot":
                spec = tree.protocol.fetch_lock(tree, candidate, isolation)
                request_locks(tree, txn, [spec], held)
                lock_name = spec.name
        except RestartOperation:
            continue
        if candidate is not None and cursor is not None:
            cursor.note_position(cand_page, cand_pos, candidate)
        release_pages(tree, held)
        if candidate is None:
            if cursor is not None:
                cursor.at_eof = True
            return FetchResult(found=False, key=None, eof=True, lock_name=lock_name)
        found = candidate.value == value if comparison == "=" else True
        return FetchResult(found=found, key=candidate, eof=False, lock_name=lock_name)


def index_fetch_next(
    tree: "BTree",
    txn: "Transaction",
    cursor: Cursor,
    stop_value: bytes | None = None,
    stop_comparison: str = "<=",
    isolation: str = "rr",
) -> FetchResult:
    """§2.3.  Advance the cursor to the next key and lock it.

    ``stop_value``/``stop_comparison`` express the key-range stopping
    condition; a key beyond it yields a not-found result (the key is
    still locked — that lock is precisely what makes the *end* of the
    range repeatable).
    """
    ctx = tree.ctx
    ctx.stats.incr("btree.op.fetch_next")
    if cursor.at_eof or cursor.current_key is None:
        return FetchResult(found=False, key=None, eof=True)
    # §2.3's shortcut: in a unique index with an equality stop condition,
    # the current position already satisfies the whole range.
    if (
        tree.unique
        and stop_value is not None
        and stop_comparison == "="
        and cursor.current_key.value == stop_value
    ):
        return FetchResult(found=False, key=None, eof=False)
    while True:
        try:
            candidate, cand_page, cand_pos, held = _locate_successor(tree, txn, cursor)
            lock_name = None
            if isolation != "snapshot":
                spec = tree.protocol.fetch_lock(tree, candidate, isolation)
                request_locks(tree, txn, [spec], held)
                lock_name = spec.name
        except RestartOperation:
            continue
        if candidate is None:
            release_pages(tree, held)
            cursor.at_eof = True
            return FetchResult(found=False, key=None, eof=True, lock_name=lock_name)
        cursor.note_position(cand_page, cand_pos, candidate)
        release_pages(tree, held)
        if stop_value is not None and not _within_stop(
            candidate.value, stop_value, stop_comparison
        ):
            return FetchResult(
                found=False, key=candidate, eof=False, lock_name=lock_name
            )
        return FetchResult(found=True, key=candidate, eof=False, lock_name=lock_name)


def _locate_successor(
    tree: "BTree", txn: "Transaction", cursor: Cursor
) -> tuple[IndexKey | None, IndexPage | None, int, list[IndexPage | None]]:
    """Find the key after the cursor position, fast path or reposition.

    Returns (candidate, page holding it, its position there, pages
    currently latched)."""
    current = cursor.current_key
    assert current is not None
    try:
        leaf = tree.fix_and_latch(cursor.leaf_id, "S")
    except PageNotFoundError:
        leaf = None
    if leaf is not None:
        if (
            isinstance(leaf, IndexPage)
            and leaf.is_leaf
            and leaf.index_id == tree.index_id
            and leaf.page_lsn == cursor.page_lsn
        ):
            # Unchanged since we noted it: the next key is the next slot.
            tree.ctx.stats.incr("btree.cursor_fast_path")
            candidate, cand_page, cand_pos = tree.find_next_key(leaf, cursor.pos + 1)
            return candidate, cand_page, cand_pos, [leaf, cand_page]
        tree.unlatch_unfix(leaf)
    # Page changed (or vanished): reposition with a full traversal, as
    # for a Fetch of the first key greater than the current one.
    tree.ctx.stats.incr("btree.cursor_repositions")
    descent = tree.traverse(current, for_update=False, txn=txn)
    leaf = descent.leaf
    descent.unlatch_parent(tree)
    pos, exact = leaf.find_key(current)
    if exact:
        pos += 1
    candidate, cand_page, cand_pos = tree.find_next_key(leaf, pos)
    if candidate is not None and candidate <= current:
        _wait_out_split(tree, txn, [leaf, cand_page])
        raise RestartOperation()
    return candidate, cand_page, cand_pos, [leaf, cand_page]


def _wait_out_split(
    tree: "BTree", txn: "Transaction", held: list[IndexPage | None]
) -> None:
    """The staleness guard of insert and delete, for a search: the next
    key came from a later leaf yet is not above the search key, so the
    leaf reached no longer covers it — a split moved its range right
    after the parent routed us, and the parent is not updated yet.
    Release the pages and wait out the SMO; the caller searches again."""
    release_pages(tree, held)
    tree.smo_barrier_wait(txn)
    tree.ctx.stats.incr("btree.stale_leaf_restarts")


def _within_stop(value: bytes, stop_value: bytes, comparison: str) -> bool:
    if comparison == "<":
        return value < stop_value
    if comparison == "<=":
        return value <= stop_value
    if comparison == "=":
        return value == stop_value
    raise ValueError(f"unsupported stop comparison {comparison!r}")
