"""Lock modes, compatibility, and conversion.

The classic Gray lattice (§1.2 assumes familiarity): IS, IX, S, SIX, X.
``COMPATIBLE[held][requested]`` says whether a new request is
compatible with an existing holder; ``CONVERT[held][requested]`` gives
the mode resulting from a holder strengthening its own lock.
"""

from __future__ import annotations

import enum


class LockMode(enum.Enum):
    IS = "IS"
    IX = "IX"
    S = "S"
    SIX = "SIX"
    X = "X"

    def __str__(self) -> str:  # keeps audit tables readable
        return self.value


class LockDuration(enum.Enum):
    """How long a granted lock is retained.

    - INSTANT: the request waits until grantable but the lock is not
      actually held (used for the next-key X lock during inserts, §2.4).
    - MANUAL: released explicitly before end of transaction.
    - COMMIT: held until the transaction commits or finishes rollback.
    """

    INSTANT = "instant"
    MANUAL = "manual"
    COMMIT = "commit"

    def __str__(self) -> str:
        return self.value


_M = LockMode

COMPATIBLE: dict[LockMode, dict[LockMode, bool]] = {
    _M.IS: {_M.IS: True, _M.IX: True, _M.S: True, _M.SIX: True, _M.X: False},
    _M.IX: {_M.IS: True, _M.IX: True, _M.S: False, _M.SIX: False, _M.X: False},
    _M.S: {_M.IS: True, _M.IX: False, _M.S: True, _M.SIX: False, _M.X: False},
    _M.SIX: {_M.IS: True, _M.IX: False, _M.S: False, _M.SIX: False, _M.X: False},
    _M.X: {_M.IS: False, _M.IX: False, _M.S: False, _M.SIX: False, _M.X: False},
}

CONVERT: dict[LockMode, dict[LockMode, LockMode]] = {
    _M.IS: {_M.IS: _M.IS, _M.IX: _M.IX, _M.S: _M.S, _M.SIX: _M.SIX, _M.X: _M.X},
    _M.IX: {_M.IS: _M.IX, _M.IX: _M.IX, _M.S: _M.SIX, _M.SIX: _M.SIX, _M.X: _M.X},
    _M.S: {_M.IS: _M.S, _M.IX: _M.SIX, _M.S: _M.S, _M.SIX: _M.SIX, _M.X: _M.X},
    _M.SIX: {_M.IS: _M.SIX, _M.IX: _M.SIX, _M.S: _M.SIX, _M.SIX: _M.SIX, _M.X: _M.X},
    _M.X: {_M.IS: _M.X, _M.IX: _M.X, _M.S: _M.X, _M.SIX: _M.X, _M.X: _M.X},
}

_DURATION_RANK = {
    LockDuration.INSTANT: 0,
    LockDuration.MANUAL: 1,
    LockDuration.COMMIT: 2,
}


def compatible(held: LockMode, requested: LockMode) -> bool:
    return COMPATIBLE[held][requested]


def convert(held: LockMode, requested: LockMode) -> LockMode:
    return CONVERT[held][requested]


def stronger_duration(a: LockDuration, b: LockDuration) -> LockDuration:
    return a if _DURATION_RANK[a] >= _DURATION_RANK[b] else b


# -- lock name constructors ----------------------------------------------------
#
# Lock names are plain tuples; the first element is a namespace tag.
# Data-only locking (§2.1) locks *records*; the
# index-specific variants lock key values; the EOF name locks the
# "past the last key" condition for a given index.


def record_lock_name(table_id: int, rid: object) -> tuple[str, int, object]:
    return ("rec", table_id, rid)


def key_value_lock_name(index_id: int, value: bytes) -> tuple[str, int, bytes]:
    return ("kv", index_id, value)


def eof_lock_name(index_id: int) -> tuple[str, int]:
    return ("eof", index_id)


def tree_lock_name(index_id: int) -> tuple[str, int]:
    """Name of the tree *lock* used by the §5 concurrent-SMO extension."""
    return ("treelock", index_id)
