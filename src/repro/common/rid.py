"""Record identifiers and key types shared by the heap and the index.

A *key* in a leaf page is a (key-value, RID) pair (§1.1).  Key values are
stored as ``bytes`` internally; :mod:`repro.common.keys` provides the
user-facing codecs.  RIDs order lexicographically by (page_id, slot) so
that duplicate key values in a nonunique index sort deterministically.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import total_ordering

_RID_STRUCT = struct.Struct(">IH")


@total_ordering
@dataclass(frozen=True, slots=True)
class RID:
    """Identifier of a record in a data (heap) page."""

    page_id: int
    slot: int

    def __lt__(self, other: "RID") -> bool:
        return (self.page_id, self.slot) < (other.page_id, other.slot)

    def to_bytes(self) -> bytes:
        return _RID_STRUCT.pack(self.page_id, self.slot)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "RID":
        page_id, slot = _RID_STRUCT.unpack(raw)
        return cls(page_id, slot)

    def __repr__(self) -> str:
        return f"RID({self.page_id}:{self.slot})"


NULL_RID = RID(0, 0)
"""Placeholder RID used where a key value alone is being locked (KVL)."""


@total_ordering
@dataclass(frozen=True, slots=True)
class IndexKey:
    """A full index key: (key value, RID of the indexed record).

    In a unique index at most one live key per value exists; in a
    nonunique index duplicates are distinguished (and ordered) by RID.
    """

    value: bytes
    rid: RID

    def __lt__(self, other: "IndexKey") -> bool:
        # Values differ on nearly every comparison of a descent, so the
        # RID tiebreak (and two tuples) is skipped unless they are equal.
        value, other_value = self.value, other.value
        if value != other_value:
            return value < other_value
        return self.rid < other.rid

    def encoded_size(self) -> int:
        """Capacity charge of this key in a leaf page (split points
        depend on it; it bounds the key's bytes in the page image)."""
        return 12 + len(self.value)

    def __repr__(self) -> str:
        return f"IndexKey({self.value!r}, {self.rid!r})"
