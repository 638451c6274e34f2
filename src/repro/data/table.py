"""Tables: a heap file plus its indexes, with data-only locking glue.

The ordering of work inside each operation is what makes ARIES/IM's
data-only locking sound (§2.1):

- **insert**: the record manager inserts the record and takes the
  commit-duration X lock on its RID *first*; each index insert then
  only needs the instant next-key lock — the new key itself is already
  protected by the record lock.
- **delete**: the RID is X-locked, every index deletes its key (taking
  the commit-duration next-key locks), and the record is ghosted last.
- **fetch via an index**: the index S-locks the found key — which *is*
  the record lock — so the record manager reads without locking.

With an index-specific protocol the record manager locks on fetch too
(``protocol.record_fetch_needs_lock``), which is exactly the extra
locking cost the paper charges those protocols with.

Snapshot transactions (``txn.snapshot`` set, see :mod:`repro.mvcc`)
take the other road entirely: reads acquire **zero** locks.  A
snapshot scan merges the live tree's key stream (latch-coupled, no
lock requests) with the dead-key side store's stream — deleted keys
the tree has physically removed — and judges every candidate by its
heap slot's ``[xmin, xmax]`` stamps.  The delete path registers the
dead keys *before* removing them from the indexes, so at no instant is
a key absent from both structures.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator

from repro.codec.values import decode_value, encode_value
from repro.common.errors import (
    KeyNotFoundError,
    LockError,
    TransactionNotActiveError,
)
from repro.common.keys import UserKey, encode_key, prefix_upper_bound
from repro.common.rid import RID
from repro.locks.modes import LockMode
from repro.btree.fetch import Cursor, _search_bound, index_fetch, index_fetch_next
from repro.btree.insert import index_insert
from repro.btree.delete import index_delete
from repro.data.heap import HeapFile

if TYPE_CHECKING:  # pragma: no cover
    from repro.btree.tree import BTree
    from repro.db import Database
    from repro.txn.transaction import Transaction

Row = dict[str, Any]


def encode_row(row: Row) -> bytes:
    return encode_value(row)


def decode_row(raw: bytes) -> Row:
    row, _ = decode_value(raw)
    return row


class Table:
    """One table: heap file + any number of B+-tree indexes."""

    def __init__(self, ctx: "Database", table_id: int, name: str) -> None:
        self._ctx = ctx
        self.table_id = table_id
        self.name = name
        self.heap = HeapFile(ctx, table_id)
        self.indexes: dict[str, "BTree"] = {}

    # -- modification ------------------------------------------------------------

    def insert(self, txn: "Transaction", row: Row) -> RID:
        """Insert ``row``; maintains every index.

        The record lock (X, commit duration) is taken by the heap
        insert, before any index is touched."""
        rid = self.heap.insert(txn, encode_row(row))
        for tree in self.indexes.values():
            key = tree.make_key(row[tree.column], rid)
            index_insert(tree, txn, key)
        return rid

    def delete(self, txn: "Transaction", rid: RID) -> Row:
        """Delete the record at ``rid``; maintains every index.

        The commit-duration X record lock comes first (§2.1: with
        data-only locking the record manager's lock is the one that
        protects the keys being deleted)."""
        self.heap._lock(txn, rid, LockMode.X)
        raw = self.heap.fetch(txn, rid, lock=False)
        row = decode_row(raw)
        # Dead keys register *before* the index deletes: a concurrent
        # snapshot scan must find every key in the tree or the side
        # store at every instant (the merge dedupes the overlap).
        self._ctx.mvcc_note_dead(self, rid, row, txn.txn_id)
        for tree in self.indexes.values():
            key = tree.make_key(row[tree.column], rid)
            index_delete(tree, txn, key)
        self.heap.delete(txn, rid)
        return row

    def update(self, txn: "Transaction", rid: RID, changes: Row) -> RID:
        """Delete + re-insert (the classic physiological update)."""
        row = self.delete(txn, rid)
        row.update(changes)
        return self.insert(txn, row)

    # -- retrieval ----------------------------------------------------------------

    def fetch_row(self, txn: "Transaction", rid: RID, lock: bool = True) -> Row:
        return decode_row(self.heap.fetch(txn, rid, lock=lock))

    def fetch_by_key(
        self,
        txn: "Transaction",
        index_name: str,
        key: UserKey,
        isolation: str = "rr",
    ) -> tuple[RID, Row] | None:
        """Point lookup through an index (Fetch with '=' condition).

        ``isolation="cs"`` (cursor stability, degree 2): the key lock is
        released as soon as the row has been read, instead of being held
        to commit.  Mixing isolation levels over the same keys within
        one transaction weakens the RR guarantees for those keys.

        A snapshot transaction ignores ``isolation`` and reads its
        snapshot, lock-free."""
        if txn.snapshot is not None or isolation == "snapshot":
            encoded = encode_key(key)
            for rid, row in self._snapshot_scan(
                txn, index_name, encoded, ">=", encoded, "="
            ):
                return rid, row
            return None
        tree = self.indexes[index_name]
        result = index_fetch(tree, txn, encode_key(key), comparison="=", isolation=isolation)
        if not result.found:
            self._cs_release(txn, result, isolation)
            return None
        rid = result.key.rid
        lock = tree.protocol.record_fetch_needs_lock
        row = self.fetch_row(txn, rid, lock=lock)
        self._cs_release(txn, result, isolation)
        return rid, row

    def fetch_by_prefix(
        self, txn: "Transaction", index_name: str, prefix: UserKey
    ) -> tuple[RID, Row] | None:
        """Partial-key Fetch (§1.1): the first key whose value starts
        with ``prefix``, or None (with the repeatable not-found lock
        left behind, as for any Fetch miss)."""
        if txn.snapshot is not None:
            for rid, row in self.scan_prefix(txn, index_name, prefix):
                return rid, row
            return None
        tree = self.indexes[index_name]
        encoded = encode_key(prefix)
        result = index_fetch(tree, txn, encoded, comparison=">=")
        if not result.found or not result.key.value.startswith(encoded):
            return None
        rid = result.key.rid
        lock = tree.protocol.record_fetch_needs_lock
        return rid, self.fetch_row(txn, rid, lock=lock)

    def scan_prefix(
        self, txn: "Transaction", index_name: str, prefix: UserKey
    ) -> Iterator[tuple[RID, Row]]:
        """All rows whose index value starts with ``prefix``, in order."""
        if txn.snapshot is not None:
            encoded = encode_key(prefix)
            upper = prefix_upper_bound(encoded)
            yield from self._snapshot_scan(
                txn, index_name, encoded, ">=", upper, "<"
            )
            return
        tree = self.indexes[index_name]
        encoded = encode_key(prefix)
        upper = prefix_upper_bound(encoded)
        from repro.btree.fetch import Cursor

        cursor = Cursor(tree)
        lock_records = tree.protocol.record_fetch_needs_lock
        result = index_fetch(tree, txn, encoded, comparison=">=", cursor=cursor)
        while result.found and result.key is not None:
            if not result.key.value.startswith(encoded):
                return
            rid = result.key.rid
            yield rid, self.fetch_row(txn, rid, lock=lock_records)
            result = index_fetch_next(
                tree, txn, cursor, stop_value=upper, stop_comparison="<"
            ) if upper is not None else index_fetch_next(tree, txn, cursor)

    def _cs_release(self, txn: "Transaction", result, isolation: str) -> None:
        """Release a cursor-stability key lock once the cursor moved on."""
        if isolation != "cs" or result.lock_name is None or txn.in_rollback:
            return
        try:
            self._ctx.locks.release(txn.txn_id, result.lock_name)
        except LockError:
            pass  # already converted away or not retained (instant path)

    def scan(
        self,
        txn: "Transaction",
        index_name: str,
        low: UserKey | None = None,
        high: UserKey | None = None,
        low_comparison: str = ">=",
        high_comparison: str = "<=",
        isolation: str = "rr",
    ) -> Iterator[tuple[RID, Row]]:
        """Range scan: Fetch to open, Fetch Next to advance (§2.2/§2.3).

        Under cursor stability (``isolation="cs"``) each key's lock is
        released as soon as the cursor advances past it, so at most one
        scan lock is held at a time (degree 2).  A snapshot transaction
        scans its snapshot, lock-free."""
        if txn.snapshot is not None or isolation == "snapshot":
            yield from self._snapshot_scan(
                txn,
                index_name,
                encode_key(low) if low is not None else b"",
                low_comparison,
                encode_key(high) if high is not None else None,
                high_comparison,
            )
            return
        tree = self.indexes[index_name]
        cursor = Cursor(tree)
        start = encode_key(low) if low is not None else b""
        stop = encode_key(high) if high is not None else None
        lock_records = tree.protocol.record_fetch_needs_lock
        result = index_fetch(
            tree, txn, start, comparison=low_comparison, cursor=cursor,
            isolation=isolation,
        )
        if not result.found:
            self._cs_release(txn, result, isolation)
            return
        while True:
            assert result.key is not None
            if stop is not None and not _within(result.key.value, stop, high_comparison):
                self._cs_release(txn, result, isolation)
                return
            rid = result.key.rid
            yield rid, self.fetch_row(txn, rid, lock=lock_records)
            previous = result
            result = index_fetch_next(
                tree, txn, cursor, stop_value=stop, stop_comparison=high_comparison,
                isolation=isolation,
            )
            self._cs_release(txn, previous, isolation)
            if not result.found:
                self._cs_release(txn, result, isolation)
                return

    # -- the snapshot read path (zero locks) -------------------------------

    def _snapshot_row(self, snapshot, rid: RID) -> Row | None:
        """Read a version latch-only and judge it against the snapshot.
        None: slot purged, version not yet committed at the snapshot,
        or deleted before it."""
        ver = self.heap.version(rid)
        if ver is None:
            return None
        data, visible, xmin, xmax = ver
        if not visible and xmax == 0:
            return None  # pre-MVCC ghost: deleted long ago, unstamped
        if not snapshot.visible_version(xmin, xmax):
            return None
        return decode_row(data)

    def _snapshot_scan(
        self,
        txn: "Transaction",
        index_name: str,
        start: bytes,
        low_comparison: str,
        stop: bytes | None,
        high_comparison: str,
    ) -> Iterator[tuple[RID, Row]]:
        """Merge the live tree's keys with the dead-key store's, in
        (value, rid) order, yielding the versions the snapshot sees.

        The tree side runs the ordinary Fetch/Fetch Next machinery with
        ``isolation="snapshot"`` — latch coupling, cursor repositioning
        across splits, but **no lock requests**.  The dead side is
        queried incrementally against the live store, so a delete
        landing ahead of the merge position is still found; behind the
        position, the tree already served the key (delete registers the
        dead entry before removing the tree key).  Visibility comes
        from the slot stamps alone, so a stale dead entry (aborted
        deleter, purged slot) yields nothing."""
        snapshot = txn.snapshot
        if snapshot is None:
            raise TransactionNotActiveError(
                "snapshot reads require a snapshot transaction "
                "(db.begin_snapshot() / db.snapshot())"
            )
        self._ctx.stats.incr("mvcc.snapshot_scans")
        tree = self.indexes[index_name]
        self._ctx.mvcc_ensure_dead_keys(self)
        versions = self._ctx.versions
        bound = _search_bound(start, "=" if low_comparison == "=" else low_comparison)
        pos: tuple[bytes, RID] = (bound.value, bound.rid)
        inclusive = True
        cursor = Cursor(tree)
        result = index_fetch(
            tree,
            txn,
            start,
            comparison=">=" if low_comparison == "=" else low_comparison,
            cursor=cursor,
            isolation="snapshot",
        )
        while True:
            tree_pair: tuple[bytes, RID] | None = None
            if result.key is not None:
                if stop is None or _within(result.key.value, stop, high_comparison):
                    tree_pair = (result.key.value, result.key.rid)
            # Drain dead keys strictly before the next tree key.
            while True:
                entry = versions.next_dead(
                    tree.index_id, pos, inclusive, stop, high_comparison
                )
                if entry is None:
                    break
                dead_pair = (entry[0], entry[1])
                if tree_pair is not None and dead_pair >= tree_pair:
                    break
                pos, inclusive = dead_pair, False
                if snapshot.delete_visible(entry[2]):
                    # The noted deleter committed in this snapshot's
                    # past: certainly invisible, skip without fixing
                    # the heap page (keeps long chains cheap pre-GC).
                    continue
                row = self._snapshot_row(snapshot, entry[1])
                if row is not None:
                    yield entry[1], row
            if tree_pair is None:
                return
            pos, inclusive = tree_pair, False
            row = self._snapshot_row(snapshot, tree_pair[1])
            if row is not None:
                yield tree_pair[1], row
            result = index_fetch_next(
                tree,
                txn,
                cursor,
                stop_value=stop,
                stop_comparison=high_comparison,
                isolation="snapshot",
            )

    def row_count(self, txn: "Transaction") -> int:
        """Visible records (via the heap, no index)."""
        return len(self.heap.scan_rids())


def _within(value: bytes, stop: bytes, comparison: str) -> bool:
    if comparison == "<":
        return value < stop
    if comparison == "<=":
        return value <= stop
    if comparison == "=":
        return value == stop
    raise KeyNotFoundError(f"unsupported comparison {comparison!r}")
