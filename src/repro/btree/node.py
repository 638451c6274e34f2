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
import struct
from collections.abc import Sequence
from functools import lru_cache
from typing import Any

from repro.common.errors import IndexError_
from repro.common.rid import RID, IndexKey
from repro.storage.page import PAGE_OVERHEAD, Page

_LEAF_ENTRY_OVERHEAD = 8
_NONLEAF_ENTRY_OVERHEAD = 16

#: Body header: index_id, level, sm_bit, delete_bit, prev_leaf,
#: next_leaf, number of keys, number of children.
_INDEX_HEADER = struct.Struct(">IHBBIIII")
#: A nonleaf high key: present flag (1), RID, value length; the value
#: bytes follow.  An absent (None) high key is the single byte 0.
_HIGH_KEY = struct.Struct(">BIHI")
_PACK_HIGH_KEY = _HIGH_KEY.pack
_UNPACK_HIGH_KEY = _HIGH_KEY.unpack_from


@lru_cache(maxsize=1024)
def _key_directory(n: int) -> struct.Struct:
    """The leaf-key directory for ``n`` keys: every RID page id, then
    every RID slot, then every value length; the values follow it,
    concatenated in key order."""
    return struct.Struct(f">{n}I{n}H{n}I")


class IndexPage(Page):
    """One B+-tree page (leaf or nonleaf)."""

    KIND_CODE = 2

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
        #: ``_measure()``, kept current by every entry mutation; None
        #: after a bulk change until the size is next needed.
        self._used: int | None = PAGE_OVERHEAD

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
        """The page as a codec dict: the form SMO log records carry."""
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
        page.load_payload(payload)
        return page

    def load_payload(self, payload: dict[str, Any]) -> None:
        """Overwrite this page's body in place (SMO undo / root ops)."""
        self.index_id = payload["index_id"]
        self.level = payload["level"]
        self.sm_bit = payload["sm_bit"]
        self.delete_bit = payload["delete_bit"]
        self.prev_leaf = payload["prev_leaf"]
        self.next_leaf = payload["next_leaf"]
        self.replace_entries(
            payload["keys"], payload["child_ids"], payload["high_keys"]
        )

    def pack_body(self) -> bytes:
        keys = self.keys
        child_ids = self.child_ids
        parts = [
            _INDEX_HEADER.pack(
                self.index_id,
                self.level,
                self.sm_bit,
                self.delete_bit,
                self.prev_leaf,
                self.next_leaf,
                len(keys),
                len(child_ids),
            )
        ]
        if keys:
            n = len(keys)
            rids = [key.rid for key in keys]
            values = [key.value for key in keys]
            parts.append(
                _key_directory(n).pack(
                    *[rid.page_id for rid in rids],
                    *[rid.slot for rid in rids],
                    *map(len, values),
                )
            )
            parts.extend(values)
        if child_ids:
            parts.append(struct.pack(f">{len(child_ids)}I", *child_ids))
            for high in self.high_keys:
                if high is None:
                    parts.append(b"\x00")
                else:
                    rid = high.rid
                    parts.append(
                        _PACK_HIGH_KEY(1, rid.page_id, rid.slot, len(high.value))
                    )
                    parts.append(high.value)
        return b"".join(parts)

    @classmethod
    def unpack_body(cls, page_id: int, raw: bytes, offset: int) -> "IndexPage":
        (
            index_id,
            level,
            sm_bit,
            delete_bit,
            prev_leaf,
            next_leaf,
            n_keys,
            n_children,
        ) = _INDEX_HEADER.unpack_from(raw, offset)
        offset += _INDEX_HEADER.size
        page = cls(page_id, index_id, level)
        page.sm_bit = bool(sm_bit)
        page.delete_bit = bool(delete_bit)
        page.prev_leaf = prev_leaf
        page.next_leaf = next_leaf
        if n_keys:
            directory = _key_directory(n_keys)
            fields = directory.unpack_from(raw, offset)
            offset += directory.size
            keys = page.keys
            for page_no, slot, length in zip(
                fields[:n_keys], fields[n_keys : 2 * n_keys], fields[2 * n_keys :]
            ):
                end = offset + length
                keys.append(IndexKey(raw[offset:end], RID(page_no, slot)))
                offset = end
        if n_children:
            page.child_ids = list(struct.unpack_from(f">{n_children}I", raw, offset))
            offset += 4 * n_children
            highs = page.high_keys
            for _ in range(n_children):
                if raw[offset] == 0:
                    highs.append(None)
                    offset += 1
                    continue
                present, page_no, slot, length = _UNPACK_HIGH_KEY(raw, offset)
                if present != 1:
                    raise ValueError(f"high-key flag {present}")
                offset += _HIGH_KEY.size
                end = offset + length
                highs.append(IndexKey(raw[offset:end], RID(page_no, slot)))
                offset = end
        if offset != len(raw):
            raise ValueError(f"body ends at byte {offset} of a {len(raw)}-byte image")
        page._used = None
        return page

    # -- size accounting ---------------------------------------------------------

    def used_size(self) -> int:
        used = self._used
        if used is None:
            used = self._used = self._measure()
        return used

    def _grow(self, delta: int) -> None:
        """Account an entry change of ``delta`` bytes (a pending recount
        will see the change itself)."""
        if self._used is not None:
            self._used += delta

    def _measure(self) -> int:
        """The used size counted from scratch (after a bulk change)."""
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

    def replace_entries(
        self,
        keys: Sequence[IndexKey] = (),
        child_ids: Sequence[int] = (),
        high_keys: Sequence[IndexKey | None] = (),
    ) -> None:
        """Install new entry lists (copied); the used size is recounted
        when next needed.  Also the way to make a level change count."""
        self.keys = list(keys)
        self.child_ids = list(child_ids)
        self.high_keys = list(high_keys)
        self._used = None

    def truncate(self, split_at: int) -> None:
        """Keep the first ``split_at`` entries (the left half of a
        split); a nonleaf's new rightmost child loses its high key."""
        if self.is_leaf:
            del self.keys[split_at:]
        else:
            del self.child_ids[split_at:]
            del self.high_keys[split_at:]
            self.high_keys[-1] = None
        self._used = None

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
        self._grow(key.encoded_size() + _LEAF_ENTRY_OVERHEAD)
        return pos

    def remove_key(self, key: IndexKey) -> int:
        pos = bisect.bisect_left(self.keys, key)
        if pos >= len(self.keys) or self.keys[pos] != key:
            raise IndexError_(f"key {key!r} not on page {self.page_id}")
        del self.keys[pos]
        self._grow(-key.encoded_size() - _LEAF_ENTRY_OVERHEAD)
        return pos

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
        self._grow(_NONLEAF_ENTRY_OVERHEAD + separator.encoded_size())

    def remove_child(self, child_id: int) -> IndexKey | None:
        """Remove a (deleted) child's entry; returns its old high key.

        If the removed child was the rightmost, the new rightmost entry
        loses its high key (the rightmost child is always unbounded).
        """
        pos = self.child_position(child_id)
        high_keys = self.high_keys
        old_high = high_keys[pos]
        del self.child_ids[pos]
        del high_keys[pos]
        freed = _NONLEAF_ENTRY_OVERHEAD
        if old_high is not None:
            freed += old_high.encoded_size()
        if high_keys and pos == len(high_keys):
            if high_keys[-1] is not None:
                freed += high_keys[-1].encoded_size()
            high_keys[-1] = None
        self._grow(-freed)
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
