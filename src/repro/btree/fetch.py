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

Both are written to the protocol's floor: the common case of a Fetch
Next step is one fix and S latch of the cursor's leaf, the page-LSN
test, the next slot and one conditional lock request, with no object
built but the cursor's own fields.  Crossing to the next leaf,
repositioning, waiting out a split and the conditional-miss dance of
§2.2 are the slow path.  :func:`fetch_next_key` is that one step;
:func:`index_fetch_next` and ``Table.scan`` both run it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.common.errors import LockNotGrantedError, PageNotFoundError
from repro.common.rid import IndexKey
from repro.btree.node import IndexPage
from repro.btree.ops_common import RestartOperation, lock_dance, release_pages
from repro.btree.protocol import LockSpec
from repro.btree.tree import MAX_RID, MIN_RID
from repro.locks.modes import LockDuration, LockMode

if TYPE_CHECKING:  # pragma: no cover
    from repro.btree.tree import BTree
    from repro.txn.transaction import Transaction


@dataclass(slots=True)
class FetchResult:
    """Outcome of a Fetch / Fetch Next call."""

    found: bool
    key: IndexKey | None
    eof: bool
    #: Name of the lock taken on the current key (or the EOF name); a
    #: cursor-stability caller releases it when the cursor moves on.
    lock_name: tuple | None = None


@dataclass(slots=True)
class Cursor:
    """Range-scan position (§2.3), noted under the leaf's latch."""

    tree: "BTree"
    current_key: IndexKey | None = None
    leaf_id: int = 0
    page_lsn: int = 0
    pos: int = -1
    at_eof: bool = False
    #: The S lock taken on ``current_key`` (or the EOF name), if any.
    lock_name: tuple | None = None


def lock_duration(isolation: str) -> LockDuration | None:
    """Duration of the S lock Fetch and Fetch Next take on the key they
    return (Figure 2).  Repeatable read ("rr", degree 3 — the paper's
    default) holds it to commit; cursor stability ("cs", degree 2)
    takes it manual so the caller can release it once the cursor moves
    off the record; a snapshot read takes none (None)."""
    if isolation == "rr":
        return LockDuration.COMMIT
    if isolation == "snapshot":
        return None
    return LockDuration.MANUAL


def past_stop(stop_value: bytes, comparison: str) -> Callable[[bytes], bool]:
    """The test "this key value lies past the range's end" for a stop
    condition ``value <comparison> stop_value``.  An unsupported
    comparison raises ValueError, so a caller that builds the test
    before its first latch refuses a bad range before any lock."""
    if comparison == "<=":
        return stop_value.__lt__
    if comparison == "<":
        return stop_value.__le__
    if comparison == "=":
        return stop_value.__ne__
    raise ValueError(f"unsupported stop comparison {comparison!r}")


def single_key_range(tree: "BTree", stop_value: bytes | None, comparison: str) -> bool:
    """§2.3's shortcut: in a unique index an equality range holds one
    key at most, so once the cursor is on it the range is done — no
    next key is read or locked."""
    return tree.unique and stop_value is not None and comparison == "="


def _search_bound(value: bytes, comparison: str) -> IndexKey:
    """Full-key search bound for a value-level comparison."""
    if comparison in ("=", ">="):
        return IndexKey(value, MIN_RID)
    if comparison == ">":
        return IndexKey(value, MAX_RID)
    raise ValueError(f"unsupported fetch comparison {comparison!r}")


def _lock_key(
    tree: "BTree",
    txn: "Transaction",
    key: IndexKey | None,
    duration: LockDuration,
    leaf: IndexPage,
    other: IndexPage | None,
) -> tuple:
    """Request the S lock on ``key`` (or EOF) conditionally, with
    ``leaf`` and ``other`` latched; returns its name.  A miss does the
    §2.2 dance and raises :class:`RestartOperation`."""
    protocol = tree.protocol
    name = protocol.key_lock_name(tree, key) if key is not None else protocol.eof_name(tree)
    try:
        txn.incarnation.locks.request(txn.txn_id, name, LockMode.S, duration, True)
    except LockNotGrantedError:
        lock_dance(tree, txn, [LockSpec(name, LockMode.S, duration)], (leaf, other))
    return name


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
    the returned key so :func:`fetch_next_key` can continue from it.
    ``isolation`` is "rr" (repeatable read, default), "cs" (cursor
    stability: the current-key lock is manual-duration and the caller
    releases it via ``result.lock_name`` when moving off the record),
    or "snapshot" (MVCC read: latches only, **no lock requests** —
    visibility is the caller's job, via the heap version stamps).
    """
    ctx = txn.incarnation
    ctx.stats.incr("btree.op.fetch")
    bound = _search_bound(value, comparison)
    duration = lock_duration(isolation)
    lock_name = None
    while True:
        leaf = tree.traverse(bound, False, txn)
        pos, _ = leaf.find_key(bound)
        try:
            if pos < leaf.key_count():
                candidate, page = leaf.key_at(pos), leaf
            else:
                candidate, page, pos = tree.find_next_key(leaf, pos, ctx)
                if candidate is not None and candidate < bound:
                    _wait_out_split(tree, txn, leaf, page)
                    continue
            if duration is not None and not txn.in_rollback:
                lock_name = _lock_key(tree, txn, candidate, duration, leaf, page)
        except RestartOperation:
            continue
        if cursor is not None:
            cursor.lock_name = lock_name
            cursor.at_eof = candidate is None
            if candidate is not None:
                cursor.leaf_id = page.page_id
                cursor.page_lsn = page.page_lsn
                cursor.pos = pos
                cursor.current_key = candidate
        tree.unlatch_unfix(leaf, ctx)
        if page is not leaf and page is not None:
            tree.unlatch_unfix(page, ctx)
        if candidate is None:
            return FetchResult(False, None, True, lock_name)
        found = candidate.value == value if comparison == "=" else True
        return FetchResult(found, candidate, False, lock_name)


def fetch_next_key(
    tree: "BTree",
    txn: "Transaction",
    cursor: Cursor,
    duration: LockDuration | None,
) -> IndexKey | None:
    """One Fetch Next step (§2.3): move ``cursor`` to the key after it
    and S-lock that key for ``duration`` — the EOF name when there is
    none, nothing when ``duration`` is None.  Returns the key, or None
    at EOF (``cursor.at_eof`` is then set).

    The cursor must be on a key (``current_key`` set, not at EOF)."""
    ctx = txn.incarnation
    ctx.stats.incr("btree.op.fetch_next")
    buffer = ctx.buffer
    latches = ctx.latches
    lock = duration is not None and not txn.in_rollback
    if not lock:
        cursor.lock_name = None
    while True:
        leaf_id = cursor.leaf_id
        # Every exit of the step lets this leaf go: the same-leaf
        # return, the release at the end, or the lock dance.
        try:
            leaf = buffer.fix(leaf_id)  # noqa: RPR001 - released on every exit of the step
        except PageNotFoundError:
            leaf = None
        else:
            try:
                latches.latch_page(leaf_id, "S")  # noqa: RPR001 - released on every exit of the step
            except BaseException:
                buffer.unfix(leaf_id)
                raise
            if not (
                isinstance(leaf, IndexPage)
                and leaf.page_lsn == cursor.page_lsn
                and leaf.level == 0
                and leaf.index_id == tree.index_id
            ):
                latches.unlatch_page(leaf_id)
                buffer.unfix(leaf_id)
                leaf = None
        try:
            if leaf is None:
                # Page changed (or vanished): reposition.
                leaf, key, page, pos = _reposition(tree, txn, cursor)
            else:
                # Unchanged since we noted it: the next key is the next slot.
                ctx.stats.incr("btree.cursor_fast_path")
                pos = cursor.pos + 1
                if pos < leaf.key_count():
                    # The common case, at the protocol's floor: this
                    # leaf's fix and latch, one conditional lock.
                    key = leaf.key_at(pos)
                    if lock:
                        name = tree.protocol.key_lock_name(tree, key)
                        try:
                            ctx.locks.request(txn.txn_id, name, LockMode.S, duration, True)
                        except LockNotGrantedError:
                            lock_dance(
                                tree, txn, [LockSpec(name, LockMode.S, duration)], (leaf,)
                            )
                        cursor.lock_name = name
                    cursor.pos = pos
                    cursor.current_key = key
                    latches.unlatch_page(leaf_id)
                    buffer.unfix(leaf_id)
                    return key
                key, page, pos = tree.find_next_key(leaf, pos, ctx)
            if lock:
                cursor.lock_name = _lock_key(tree, txn, key, duration, leaf, page)
        except RestartOperation:
            continue
        if key is None:
            cursor.at_eof = True
        else:
            cursor.leaf_id = page.page_id
            cursor.page_lsn = page.page_lsn
            cursor.pos = pos
            cursor.current_key = key
        tree.unlatch_unfix(leaf, ctx)
        if page is not leaf and page is not None:
            tree.unlatch_unfix(page, ctx)
        return key


def _reposition(
    tree: "BTree", txn: "Transaction", cursor: Cursor
) -> tuple[IndexPage, IndexKey | None, IndexPage | None, int]:
    """Fetch Next's slow path: a fresh traversal, as for a Fetch of the
    first key greater than the current one.  Returns the leaf reached,
    the next key, the page holding it and its position there, with
    both pages latched."""
    ctx = txn.incarnation
    ctx.stats.incr("btree.cursor_repositions")
    current = cursor.current_key
    leaf = tree.traverse(current, False, txn)
    pos, exact = leaf.find_key(current)
    if exact:
        pos += 1
    key, page, pos = tree.find_next_key(leaf, pos, ctx)
    if key is not None and key <= current:
        _wait_out_split(tree, txn, leaf, page)
        raise RestartOperation()
    return leaf, key, page, pos


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
    past = past_stop(stop_value, stop_comparison) if stop_value is not None else None
    if cursor.at_eof or cursor.current_key is None:
        txn.incarnation.stats.incr("btree.op.fetch_next")
        return FetchResult(False, None, True)
    if (
        single_key_range(tree, stop_value, stop_comparison)
        and cursor.current_key.value == stop_value
    ):
        txn.incarnation.stats.incr("btree.op.fetch_next")
        return FetchResult(False, None, False)
    key = fetch_next_key(tree, txn, cursor, lock_duration(isolation))
    if key is None:
        return FetchResult(False, None, True, cursor.lock_name)
    return FetchResult(past is None or not past(key.value), key, False, cursor.lock_name)


def _wait_out_split(
    tree: "BTree", txn: "Transaction", leaf: IndexPage, page: IndexPage | None
) -> None:
    """The staleness guard of insert and delete, for a search: the next
    key came from a later leaf yet is not above the search key, so the
    leaf reached no longer covers it — a split moved its range right
    after the parent routed us, and the parent is not updated yet.
    Release the pages and wait out the SMO; the caller searches again
    (a crash meanwhile retires ``txn``'s incarnation, so the search
    raises instead of retrying against the pages on disk)."""
    ctx = txn.incarnation
    release_pages(tree, (leaf, page), ctx)
    tree.smo_barrier_wait(txn)
    ctx.stats.incr("btree.stale_leaf_restarts")
