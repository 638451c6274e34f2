"""The dead-key side store: where deleted versions stay findable.

The heap never reuses a ghosted slot, so the *record* side of an old
version survives for free — but the B+-tree physically removes deleted
keys, so a snapshot range scan cannot find them through the tree.
This store keeps, per index, the (key value, RID) pairs whose records
have been deleted, sorted so a scan can merge them with the live tree
stream.

Entries are only ever *advisory*: visibility is always re-evaluated
against the slot's current ``[xmin, xmax]`` stamps at read time, so a
stale entry (deleter aborted and the ghost was unghosted, or the slot
was purged) is harmless — the merge just yields nothing for it.  That
is what makes the maintenance rules simple and race-free:

- the forward delete path registers the entry *before* the index keys
  are removed (no window where a key is in neither structure);
- redo of a heap delete registers it too (restart, standby replay,
  PITR all rebuild the store as a side effect of replay);
- nothing ever removes entries inline — only GC sweeps them, and only
  when the slot's stamps prove no snapshot can need them;
- the store belongs to one incarnation: after a crash the next one
  starts empty and rebuilds it lazily per table from the ghost slots
  themselves (which is exactly the set of deletions whose redo the LSN
  check will skip).
"""

from __future__ import annotations

import threading
from bisect import bisect_left, insort
from typing import TYPE_CHECKING, Iterator

from repro.btree.fetch import past_stop
from repro.common.rid import RID

if TYPE_CHECKING:  # pragma: no cover
    from repro.data.table import Table
    from repro.incarnation import Incarnation

#: One dead key: (encoded index value, rid) plus the deleter's txn id
#: as noted at registration time (GC uses it to keep entries for
#: still-unresolved deleters).
DeadKey = tuple[bytes, RID]


class _IndexDeadKeys:
    """Sorted dead keys of one index."""

    __slots__ = ("order", "xmax")

    def __init__(self) -> None:
        self.order: list[DeadKey] = []
        self.xmax: dict[DeadKey, int] = {}

    def add(self, pair: DeadKey, xmax: int) -> None:
        if pair not in self.xmax:
            insort(self.order, pair)
        self.xmax[pair] = xmax

    def discard(self, pair: DeadKey) -> None:
        if pair in self.xmax:
            del self.xmax[pair]
            i = bisect_left(self.order, pair)
            if i < len(self.order) and self.order[i] == pair:
                del self.order[i]


class VersionStore:
    """Dead keys per index, plus per-table lazy rebuild state."""

    def __init__(self) -> None:
        self._mutex = threading.RLock()
        self._dead: dict[int, _IndexDeadKeys] = {}
        self._built: set[int] = set()  # table_ids scanned for ghosts

    # -- maintenance -------------------------------------------------------

    def note_dead(
        self, table: "Table", rid: RID, row: dict, xmax: int
    ) -> None:
        """Register a record's keys as dead in every index of its table
        (call *before* the index deletes so the keys never vanish from
        both structures at once)."""
        with self._mutex:
            for tree in table.indexes.values():
                key = tree.make_key(row[tree.column], rid)
                self._index(tree.index_id).add((key.value, key.rid), xmax)

    def note_dead_key(
        self, index_id: int, value: bytes, rid: RID, xmax: int
    ) -> None:
        """Register one dead key directly (redo of an index-key delete:
        the record names exactly one index, and the heap delete whose
        redo would register the full row comes *later* in the log — a
        standby must not expose the in-between window)."""
        with self._mutex:
            self._index(index_id).add((value, rid), xmax)

    def forget(self, table: "Table", rid: RID, row: dict) -> None:
        """Drop a record's dead keys (physical purge made the slot
        unreadable, so the entries can only yield nothing)."""
        with self._mutex:
            for tree in table.indexes.values():
                key = tree.make_key(row[tree.column], rid)
                self._index(tree.index_id).discard((key.value, key.rid))

    def discard(self, index_id: int, pair: DeadKey) -> None:
        with self._mutex:
            self._index(index_id).discard(pair)

    def ensure_table(self, table: "Table", ctx: "Incarnation") -> None:
        """Rebuild a table's dead keys from its ghost slots (read
        through ``ctx``, the incarnation this store belongs to) once per
        table: a new incarnation's store starts empty.  Idempotent;
        plays well with instant restart because fixing a heap page
        recovers it on demand."""
        with self._mutex:
            if table.table_id in self._built:
                return
            # Mark first: note_dead calls racing the scan are additive
            # and idempotent, so overlap is safe.
            self._built.add(table.table_id)
        from repro.data.table import decode_row

        for rid, (data, _, _, xmax) in table.heap.ghosts(ctx):
            if xmax == 0:
                continue  # pre-MVCC ghost: no snapshot can see it
            self.note_dead(table, rid, decode_row(data), xmax)

    # -- read side ---------------------------------------------------------

    def next_dead(
        self,
        index_id: int,
        lower: DeadKey,
        inclusive: bool,
        stop: bytes | None,
        stop_comparison: str,
    ) -> tuple[bytes, RID, int] | None:
        """Smallest dead key at/above ``lower`` within the stop bound.

        Queried incrementally as a merge advances, against the *live*
        store — a delete landing ahead of the merge position is found
        when the merge gets there."""
        with self._mutex:
            keys = self._dead.get(index_id)
            if keys is None or not keys.order:
                return None
            i = bisect_left(keys.order, lower)
            if not inclusive and i < len(keys.order) and keys.order[i] == lower:
                i += 1
            if i >= len(keys.order):
                return None
            value, rid = keys.order[i]
            if stop is not None and past_stop(stop, stop_comparison)(value):
                return None
            return value, rid, keys.xmax[(value, rid)]

    def entries(self, index_id: int) -> Iterator[tuple[bytes, RID, int]]:
        """All dead keys of one index (GC and inspection)."""
        with self._mutex:
            keys = self._dead.get(index_id)
            if keys is None:
                return iter(())
            return iter(
                [(v, r, keys.xmax[(v, r)]) for v, r in keys.order]
            )

    def entry_count(self, index_id: int) -> int:
        with self._mutex:
            keys = self._dead.get(index_id)
            return len(keys.order) if keys is not None else 0

    def _index(self, index_id: int) -> _IndexDeadKeys:
        keys = self._dead.get(index_id)
        if keys is None:
            keys = self._dead[index_id] = _IndexDeadKeys()
        return keys

