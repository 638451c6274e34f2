"""Record identifiers and key types shared by the heap and the index.

A *key* in a leaf page is a (key-value, RID) pair (§1.1).  Key values are
stored as ``bytes`` internally; :mod:`repro.common.keys` provides the
user-facing codecs.  RIDs order lexicographically by (page_id, slot) so
that duplicate key values in a nonunique index sort deterministically.

Both types are named tuples: an ``IndexKey`` is the tuple
``(value, (page_id, slot))``, whose built-in tuple order *is* the key
order, so a leaf bisect, a sort and a lock-table hash compare in C with
no Python-level ``__lt__``/``__hash__``.  The price of being tuples is
that each compares equal to the plain tuple of its fields.
"""

from __future__ import annotations

from typing import NamedTuple


class RID(NamedTuple):
    """Identifier of a record in a data (heap) page."""

    page_id: int
    slot: int

    def __repr__(self) -> str:
        return f"RID({self.page_id}:{self.slot})"


NULL_RID = RID(0, 0)
"""Placeholder RID used where a key value alone is being locked (KVL)."""


class IndexKey(NamedTuple):
    """A full index key: (key value, RID of the indexed record).

    In a unique index at most one live key per value exists; in a
    nonunique index duplicates are distinguished (and ordered) by RID.
    """

    value: bytes
    rid: RID

    def encoded_size(self) -> int:
        """Capacity charge of this key in a leaf page (split points
        depend on it; it bounds the key's bytes in the page image)."""
        return 12 + len(self.value)

    def __repr__(self) -> str:
        return f"IndexKey({self.value!r}, {self.rid!r})"
