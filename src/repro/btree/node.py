"""Index page layout (§1.1).

- A key in a leaf page is a (key-value, RID) pair; the records live in
  data pages outside the tree.
- Leaf pages are forward and backward chained.
- Every nonleaf page holds child pointers and one fewer high keys: each
  high key belongs to one child, the rightmost child has none, and a
  child's high key is strictly greater than the highest key actually
  stored in (the subtree of) that child.
- Every page carries the **SM_Bit** (set while the page participates in
  an uncompleted structure modification, §2.1) and leaves carry the
  **Delete_Bit** (set by a key delete, §3 / Figure 11).

Both bits are *physical hints*: setting them is logged as part of the
SMO/delete records, but resetting them is deliberately unlogged — a
stale '1' after a crash is safe (it only makes a traverser take an
instant tree latch that is immediately granted), exactly the laziness
the paper allows ("The SM_Bit can be reset to '0' once the SMO which
caused it to be set has been completed").
"""

from __future__ import annotations

import bisect
from typing import Any

from repro.common.errors import IndexError_
from repro.common.rid import RID, IndexKey
from repro.storage.page import PAGE_OVERHEAD, Page

_LEAF_ENTRY_OVERHEAD = 8
_NONLEAF_ENTRY_OVERHEAD = 16


class IndexPage(Page):
    """One B+-tree page (leaf or nonleaf)."""

    KIND = "index"

    def __init__(self, page_id: int, index_id: int, level: int) -> None:
        super().__init__(page_id)
        self.index_id = index_id
        self.level = level  # 0 = leaf
        self.sm_bit = False
        self.delete_bit = False
        # Leaf state:
        self.keys: list[IndexKey] = []
        self.prev_leaf = 0
        self.next_leaf = 0
        # Nonleaf state: parallel lists of child ids and high keys; the
        # rightmost high key is always None.
        self.child_ids: list[int] = []
        self.high_keys: list[IndexKey | None] = []

    # -- basics ---------------------------------------------------------------

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def entry_count(self) -> int:
        return len(self.keys) if self.is_leaf else len(self.child_ids)

    def is_empty(self) -> bool:
        return self.entry_count() == 0

    # -- serialization -----------------------------------------------------------

    def to_payload(self) -> dict[str, Any]:
        return {
            "index_id": self.index_id,
            "level": self.level,
            "sm_bit": self.sm_bit,
            "delete_bit": self.delete_bit,
            "keys": list(self.keys),
            "prev_leaf": self.prev_leaf,
            "next_leaf": self.next_leaf,
            "child_ids": list(self.child_ids),
            "high_keys": list(self.high_keys),
        }

    @classmethod
    def from_payload(cls, page_id: int, payload: dict[str, Any]) -> "IndexPage":
        page = cls(page_id, payload["index_id"], payload["level"])
        page.sm_bit = payload["sm_bit"]
        page.delete_bit = payload["delete_bit"]
        page.keys = list(payload["keys"])
        page.prev_leaf = payload["prev_leaf"]
        page.next_leaf = payload["next_leaf"]
        page.child_ids = list(payload["child_ids"])
        page.high_keys = list(payload["high_keys"])
        return page

    def load_payload(self, payload: dict[str, Any]) -> None:
        """Overwrite this page's body in place (SMO undo / root ops)."""
        self.index_id = payload["index_id"]
        self.level = payload["level"]
        self.sm_bit = payload["sm_bit"]
        self.delete_bit = payload["delete_bit"]
        self.keys = list(payload["keys"])
        self.prev_leaf = payload["prev_leaf"]
        self.next_leaf = payload["next_leaf"]
        self.child_ids = list(payload["child_ids"])
        self.high_keys = list(payload["high_keys"])

    def used_size(self) -> int:
        total = PAGE_OVERHEAD
        if self.is_leaf:
            for key in self.keys:
                total += key.encoded_size() + _LEAF_ENTRY_OVERHEAD
        else:
            for high in self.high_keys:
                total += _NONLEAF_ENTRY_OVERHEAD
                if high is not None:
                    total += high.encoded_size()
        return total

    def has_room_for_key(self, key: IndexKey, page_size: int) -> bool:
        return self.used_size() + key.encoded_size() + _LEAF_ENTRY_OVERHEAD <= page_size

    def has_room_for_child(self, high: IndexKey | None, page_size: int) -> bool:
        extra = _NONLEAF_ENTRY_OVERHEAD + (high.encoded_size() if high else 0)
        return self.used_size() + extra <= page_size

    # -- leaf operations ------------------------------------------------------------

    def find_key(self, key: IndexKey) -> tuple[int, bool]:
        """(position, exact-match?) for ``key`` in a leaf."""
        pos = bisect.bisect_left(self.keys, key)
        found = pos < len(self.keys) and self.keys[pos] == key
        return pos, found

    def position_for_value(self, value: bytes) -> int:
        """Position of the first key whose value is >= ``value``."""
        lo, hi = 0, len(self.keys)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.keys[mid].value < value:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def insert_key(self, key: IndexKey) -> int:
        pos = bisect.bisect_left(self.keys, key)
        if pos < len(self.keys) and self.keys[pos] == key:
            raise IndexError_(f"key {key!r} already present on page {self.page_id}")
        self.keys.insert(pos, key)
        return pos

    def remove_key(self, key: IndexKey) -> int:
        pos = bisect.bisect_left(self.keys, key)
        if pos >= len(self.keys) or self.keys[pos] != key:
            raise IndexError_(f"key {key!r} not on page {self.page_id}")
        del self.keys[pos]
        return pos

    def contains_value(self, value: bytes) -> bool:
        pos = self.position_for_value(value)
        return pos < len(self.keys) and self.keys[pos].value == value

    def lowest_key(self) -> IndexKey | None:
        return self.keys[0] if self.keys else None

    def highest_key(self) -> IndexKey | None:
        return self.keys[-1] if self.keys else None

    def bounds_key(self, key: IndexKey) -> bool:
        """Is ``key`` *bound* on this leaf — both a lower and a higher
        key present (§3, reason 3 for logical undo)?"""
        if len(self.keys) < 2:
            return False
        return self.keys[0] < key < self.keys[-1]

    # -- nonleaf operations ------------------------------------------------------------

    def max_high_key(self) -> IndexKey | None:
        """The largest high key actually stored (None if the page has
        fewer than two children, i.e. no high keys at all)."""
        if len(self.high_keys) < 2:
            return None
        return self.high_keys[-2]

    def child_for(self, key: IndexKey) -> int:
        """Route ``key``: the first child whose high key is > key, else
        the rightmost child."""
        child_ids = self.child_ids
        if not child_ids:
            raise IndexError_(f"nonleaf page {self.page_id} has no children")
        # The trailing None (the unbounded rightmost child) is kept out
        # of the search; a key >= every high key lands on it.
        last = len(child_ids) - 1
        return child_ids[bisect.bisect_right(self.high_keys, key, 0, last)]

    def child_position(self, child_id: int) -> int:
        try:
            return self.child_ids.index(child_id)
        except ValueError:
            raise IndexError_(
                f"page {child_id} is not a child of page {self.page_id}"
            ) from None

    def insert_split_entry(
        self, left_child: int, right_child: int, separator: IndexKey
    ) -> None:
        """Record that ``left_child`` split: it keeps keys < separator,
        ``right_child`` takes the rest and inherits left's old high key."""
        pos = self.child_position(left_child)
        old_high = self.high_keys[pos]
        self.high_keys[pos] = separator
        self.child_ids.insert(pos + 1, right_child)
        self.high_keys.insert(pos + 1, old_high)

    def remove_child(self, child_id: int) -> IndexKey | None:
        """Remove a (deleted) child's entry; returns its old high key.

        If the removed child was the rightmost, the new rightmost entry
        loses its high key (the rightmost child is always unbounded).
        """
        pos = self.child_position(child_id)
        old_high = self.high_keys[pos]
        del self.child_ids[pos]
        del self.high_keys[pos]
        if self.high_keys and pos == len(self.high_keys):
            self.high_keys[-1] = None
        return old_high

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else f"nonleaf(level={self.level})"
        bits = []
        if self.sm_bit:
            bits.append("SM")
        if self.delete_bit:
            bits.append("DEL")
        flag = f" bits={'|'.join(bits)}" if bits else ""
        return (
            f"<IndexPage {self.page_id} {kind} idx={self.index_id} "
            f"n={self.entry_count()} lsn={self.page_lsn}{flag}>"
        )
