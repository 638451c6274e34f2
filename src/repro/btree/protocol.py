"""Locking protocols: what to lock, in which mode, for which duration.

Figure 2 of the paper is exactly this table for ARIES/IM; the baseline
protocols (ARIES/KVL from [Moha90a], and a System R-style protocol as
characterized in §1/§5) are expressed through the same interface so the
index action routines are protocol-agnostic and the lock-count
experiments (E1, E7) compare like with like.

The key distinction (§2.1):

- **data-only locking** (ARIES/IM's headline): the lock of a key *is*
  the lock on the corresponding record (or its data page, at page
  granularity).  The index manager locks the record during fetches;
  the record manager's own X lock covers inserts/deletes, so the index
  takes *no* current-key lock for those.
- **index-specific locking**: explicit locks on keys in the index —
  ARIES/IM's variant locks individual (value, RID) keys; ARIES/KVL and
  System R lock key *values*, which in a nonunique index makes all
  duplicates share one lock.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, NamedTuple

from repro.common.rid import IndexKey
from repro.locks.modes import (
    LockDuration,
    LockMode,
    eof_lock_name,
    key_value_lock_name,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.btree.tree import BTree


class LockSpec(NamedTuple):
    """One lock to request."""

    name: tuple
    mode: LockMode
    duration: LockDuration


def _individual_key_name(tree: "BTree", key: IndexKey) -> tuple:
    """Lock name for one individual key (value, RID) — the unit
    ARIES/IM's index-specific variant locks (finer than KVL's values)."""
    return ("key", tree.index_id, key.value, key.rid)


class LockingProtocol(abc.ABC):
    """Strategy interface consulted by the index action routines."""

    name: str = ""
    #: Must the record manager lock the record when a fetch goes on to
    #: read the data page?  False only for data-only locking, where the
    #: index's current-key lock *is* the record lock.
    record_fetch_needs_lock: bool = True
    #: Does the index manager take current-key locks on insert/delete?
    #: False for data-only locking (the record manager's X lock covers).
    index_locks_current_key: bool = True

    def key_lock_name(self, tree: "BTree", key: IndexKey) -> tuple:
        """Lock name used for ``key`` (protocol-specific granularity)."""
        raise NotImplementedError

    def eof_name(self, tree: "BTree") -> tuple:
        """The special lock name for the end-of-file condition (§2.2)."""
        return eof_lock_name(tree.index_id)

    def _name_or_eof(self, tree: "BTree", key: IndexKey | None) -> tuple:
        return self.key_lock_name(tree, key) if key is not None else self.eof_name(tree)

    # -- the Figure 2 table, one row per operation ----------------------------

    def fetch_lock(
        self, tree: "BTree", found: IndexKey | None, isolation: str = "rr"
    ) -> LockSpec:
        """Current-key (or EOF) lock for Fetch / Fetch Next.

        Repeatable read ("rr", degree 3 — the paper's default) holds it
        to commit; cursor stability ("cs", degree 2) takes it manual so
        the caller can release it once the cursor moves off the record.
        """
        duration = LockDuration.COMMIT if isolation == "rr" else LockDuration.MANUAL
        return LockSpec(self._name_or_eof(tree, found), LockMode.S, duration)

    @abc.abstractmethod
    def insert_locks(
        self,
        tree: "BTree",
        key: IndexKey,
        next_key: IndexKey | None,
        value_exists: bool,
    ) -> list[LockSpec]:
        """Locks for inserting ``key`` whose next key is ``next_key``.

        ``value_exists``: other keys with the same value are present
        (only possible in a nonunique index) — KVL's lock requirements
        depend on it.
        """

    @abc.abstractmethod
    def delete_locks(
        self,
        tree: "BTree",
        key: IndexKey,
        next_key: IndexKey | None,
        last_instance: bool,
    ) -> list[LockSpec]:
        """Locks for deleting ``key``; ``last_instance`` is True when no
        other key with the same value remains."""

    def unique_check_lock(self, tree: "BTree", found: IndexKey) -> LockSpec:
        """Commit-duration S lock making a unique-violation repeatable
        (§2.4)."""
        return LockSpec(
            self.key_lock_name(tree, found), LockMode.S, LockDuration.COMMIT
        )


class DataOnlyLocking(LockingProtocol):
    """ARIES/IM data-only locking (Figure 2, default)."""

    name = "aries_im_data_only"
    record_fetch_needs_lock = False
    index_locks_current_key = False

    def key_lock_name(self, tree: "BTree", key: IndexKey) -> tuple:
        return tree.ctx.heap_lock_name(tree.table_id, key.rid)

    def insert_locks(self, tree, key, next_key, value_exists):
        # Next key: X instant.  Current key: none — the record manager
        # already holds the commit-duration X record lock.
        return [
            LockSpec(self._name_or_eof(tree, next_key), LockMode.X, LockDuration.INSTANT)
        ]

    def delete_locks(self, tree, key, next_key, last_instance):
        # Next key: X commit (the deleter's trace, §2.6).  Current: none.
        return [
            LockSpec(self._name_or_eof(tree, next_key), LockMode.X, LockDuration.COMMIT)
        ]


class IndexSpecificLocking(LockingProtocol):
    """ARIES/IM's index-specific variant (Figure 2, right column):
    explicit locks on individual keys for slightly more concurrency at
    extra locking cost (§2.1)."""

    name = "aries_im_index_specific"
    record_fetch_needs_lock = True
    index_locks_current_key = True

    def key_lock_name(self, tree: "BTree", key: IndexKey) -> tuple:
        return _individual_key_name(tree, key)

    def insert_locks(self, tree, key, next_key, value_exists):
        return [
            LockSpec(self._name_or_eof(tree, next_key), LockMode.X, LockDuration.INSTANT),
            LockSpec(self.key_lock_name(tree, key), LockMode.X, LockDuration.COMMIT),
        ]

    def delete_locks(self, tree, key, next_key, last_instance):
        return [
            LockSpec(self._name_or_eof(tree, next_key), LockMode.X, LockDuration.COMMIT),
            LockSpec(self.key_lock_name(tree, key), LockMode.X, LockDuration.INSTANT),
        ]


class KeyValueLocking(LockingProtocol):
    """ARIES/KVL [Moha90a]: locks on key *values*.

    All duplicates of a value share one lock name — the coarseness the
    paper criticizes for nonunique indexes (§1).  Lock table (from the
    ARIES/KVL paper as summarized here):

    - Fetch: S commit on the found value (or EOF).
    - Insert: IX instant on the next value, plus IX commit on the
      inserted value when it already exists (nonunique duplicate), X
      commit when it is new.
    - Delete: X commit on the deleted value; additionally X commit on
      the next value when the last instance of the value is removed.
    """

    name = "aries_kvl"
    record_fetch_needs_lock = True
    index_locks_current_key = True

    def key_lock_name(self, tree: "BTree", key: IndexKey) -> tuple:
        return key_value_lock_name(tree.index_id, key.value)

    def insert_locks(self, tree, key, next_key, value_exists):
        if value_exists:
            return [
                LockSpec(self.key_lock_name(tree, key), LockMode.IX, LockDuration.COMMIT)
            ]
        return [
            LockSpec(self._name_or_eof(tree, next_key), LockMode.IX, LockDuration.INSTANT),
            LockSpec(self.key_lock_name(tree, key), LockMode.X, LockDuration.COMMIT),
        ]

    def delete_locks(self, tree, key, next_key, last_instance):
        locks = [
            LockSpec(self.key_lock_name(tree, key), LockMode.X, LockDuration.COMMIT)
        ]
        if last_instance:
            locks.append(
                LockSpec(self._name_or_eof(tree, next_key), LockMode.X, LockDuration.COMMIT)
            )
        return locks


class SystemRStyleLocking(LockingProtocol):
    """System R-style index locking, as characterized in §1/§5: key
    value locks, all of commit duration, on both current and next keys
    for writes — "the number of locks acquired for even single record
    operations ... is very high".  An approximation (System R source is
    unavailable); labeled as such wherever reported."""

    name = "system_r_style"
    record_fetch_needs_lock = True
    index_locks_current_key = True

    def key_lock_name(self, tree: "BTree", key: IndexKey) -> tuple:
        return key_value_lock_name(tree.index_id, key.value)

    def insert_locks(self, tree, key, next_key, value_exists):
        return [
            LockSpec(self._name_or_eof(tree, next_key), LockMode.X, LockDuration.COMMIT),
            LockSpec(self.key_lock_name(tree, key), LockMode.X, LockDuration.COMMIT),
        ]

    def delete_locks(self, tree, key, next_key, last_instance):
        return [
            LockSpec(self._name_or_eof(tree, next_key), LockMode.X, LockDuration.COMMIT),
            LockSpec(self.key_lock_name(tree, key), LockMode.X, LockDuration.COMMIT),
        ]


PROTOCOLS: dict[str, type[LockingProtocol]] = {
    DataOnlyLocking.name: DataOnlyLocking,
    IndexSpecificLocking.name: IndexSpecificLocking,
    KeyValueLocking.name: KeyValueLocking,
    SystemRStyleLocking.name: SystemRStyleLocking,
}

#: Protocols the experiments compare (E1, E7, E8, E19), in presentation
#: order: ARIES/IM's two modes, then the baselines.
COMPARED_PROTOCOLS = list(PROTOCOLS)


def make_protocol(name: str) -> LockingProtocol:
    """Instantiate a protocol by name (also accepts the short aliases
    ``data_only``, ``index_specific``, ``kvl`` and ``system_r``)."""
    aliases = {
        "data_only": DataOnlyLocking.name,
        "index_specific": IndexSpecificLocking.name,
        "kvl": KeyValueLocking.name,
        "system_r": SystemRStyleLocking.name,
    }
    resolved = aliases.get(name, name)
    cls = PROTOCOLS.get(resolved)
    if cls is None:
        raise KeyError(f"unknown locking protocol {name!r}")
    return cls()
