"""Shared machinery for the index action routines.

Implements the paper's lock/latch interaction discipline (§2.2):

    all the lock calls are described as if they would be granted right
    away [...] if the lock is not granted when requested conditionally,
    then (1) all the latches must be released, (2) the lock must be
    requested unconditionally, and (3) once the lock is granted, a
    verification must be performed [...]

:func:`lock_dance` performs steps (1) and (2) and signals step (3)
to the caller by raising :class:`RestartOperation`; every action
routine catches it and restarts from its traversal, which *is* the
verification (the world is re-derived from scratch).

Rolling-back transactions request no locks at all (§4) — every helper
here no-ops for them, except the §5 tree lock which is handled in
:mod:`repro.btree.tree`.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, NoReturn, Sequence

from repro.common.errors import LockNotGrantedError
from repro.btree.node import IndexPage
from repro.btree.protocol import LockSpec
from repro.locks.modes import LockDuration

if TYPE_CHECKING:  # pragma: no cover
    from repro.btree.tree import BTree
    from repro.txn.transaction import Transaction


class Outcome(enum.Enum):
    """Result of one attempt at a leaf-level action."""

    DONE = "done"
    NEEDS_SPLIT = "needs_split"


class RestartOperation(Exception):
    """Internal control flow: latches were released to wait for a lock
    (or the SMO barrier); the operation must restart from traversal.

    ``smo_barrier_lost`` tells an SMO-path caller that it also gave up
    the tree latch/lock and must re-enter the SMO."""

    def __init__(self, smo_barrier_lost: bool = False) -> None:
        self.smo_barrier_lost = smo_barrier_lost
        super().__init__("operation restart required")


def release_pages(tree: "BTree", pages: Sequence[IndexPage | None]) -> None:
    """Unlatch and unfix every distinct non-None page."""
    for i, page in enumerate(pages):
        if page is not None and page not in pages[:i]:
            tree.unlatch_unfix(page)


def request_locks(
    tree: "BTree",
    txn: "Transaction",
    specs: Sequence[LockSpec],
    held_pages: Sequence[IndexPage | None],
    smo_barrier_held: bool = False,
) -> None:
    """Request ``specs`` conditionally while latches are held; on a
    miss, :func:`lock_dance` from the missed spec on."""
    if txn.in_rollback:
        return
    request = tree.ctx.locks.request
    for position, spec in enumerate(specs):
        try:
            request(txn.txn_id, spec.name, spec.mode, spec.duration, conditional=True)
        except LockNotGrantedError:
            lock_dance(tree, txn, specs[position:], held_pages, smo_barrier_held)


def lock_dance(
    tree: "BTree",
    txn: "Transaction",
    specs: Sequence[LockSpec],
    held_pages: Sequence[IndexPage | None],
    smo_barrier_held: bool = False,
) -> NoReturn:
    """A conditional request for ``specs[0]`` was not granted: release
    all held page latches (and the SMO barrier if the caller holds it —
    no lock may be requested unconditionally while *any* latch is
    held, §2.2/§4), acquire the missed lock and the rest of ``specs``
    unconditionally, and raise :class:`RestartOperation`.

    The unconditionally acquired locks are *kept* (§2.2: "once the lock
    is granted, a verification must be performed ... a corrective
    action (e.g., requesting another lock)" — the original grant is
    retained).  An instant-duration spec is therefore upgraded to a
    held lock for the rest of the transaction; dropping it instead
    would let two contenders ping-pong conditional misses forever.
    Grabbing the later specs too avoids one dance per remaining spec;
    the restart re-derives and re-requests everything anyway.
    """
    ctx = tree.ctx
    release_pages(tree, held_pages)
    if smo_barrier_held:
        tree.smo_end(txn)
    ctx.stats.incr("btree.lock_dances")
    for spec in specs:
        duration = spec.duration
        if duration is LockDuration.INSTANT:
            duration = LockDuration.MANUAL  # released at txn end
        ctx.locks.request(txn.txn_id, spec.name, spec.mode, duration)
    raise RestartOperation(smo_barrier_lost=smo_barrier_held) from None


def same_value_nearby(
    leaf: IndexPage, pos: int, value: bytes, next_key
) -> bool:
    """Is another key with ``value`` visible around position ``pos``?

    Used for the KVL baseline's value-existence conditions.  Checks the
    predecessor on this page and the already-located next key; a
    duplicate that is the last key of the *previous* leaf is missed —
    an approximation that can only make KVL look cheaper (documented in
    DESIGN.md §6), i.e. it biases *against* ARIES/IM in E7.
    """
    if pos > 0 and leaf.key_at(pos - 1).value == value:
        return True
    return next_key is not None and next_key.value == value
