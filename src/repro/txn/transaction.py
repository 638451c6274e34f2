"""Transaction state.

A transaction carries its ARIES bookkeeping: ``last_lsn`` (head of its
backward log-record chain), rollback status, savepoints, and the stack
of nested-top-action begin points (§1.2).  ``in_rollback`` matters to
the index manager: per §4, a rolling-back transaction requests **no
locks**, which is why it can never deadlock.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.wal.records import NULL_LSN


class TxnStatus(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"  # commit record written, end record pending
    ROLLING_BACK = "rolling_back"
    ENDED = "ended"
    ABORTED = "aborted"  # rollback finished
    #: Two-phase commit: PREPARE forced, coordinator decision pending.
    #: Neither a loser nor a winner at restart — held in-doubt with its
    #: locks until the coordinator resolves it (presumed abort).
    PREPARED = "prepared"


@dataclass
class Transaction:
    txn_id: int
    status: TxnStatus = TxnStatus.ACTIVE
    last_lsn: int = NULL_LSN
    #: LSN of this transaction's first record (bounds log truncation:
    #: a total rollback needs the chain back to here).
    first_lsn: int = NULL_LSN
    #: Where undo should resume for this transaction (restart recovery
    #: tracks this across the single backward sweep).
    undo_next_lsn: int = NULL_LSN
    savepoints: dict[str, int] = field(default_factory=dict)
    nta_stack: list[int] = field(default_factory=list)
    in_rollback: bool = False
    #: Set on read-only snapshot transactions (:mod:`repro.mvcc`): the
    #: Snapshot/HorizonSnapshot whose commit-order view this
    #: transaction reads.  A snapshot transaction acquires no locks and
    #: may not log (``log_for`` enforces it).
    snapshot: object | None = None
    #: Global transaction id when this branch was PREPAREd (2PC).
    gid: str | None = None
    #: LSN of this branch's PREPARE record.
    prepare_lsn: int = NULL_LSN
    #: The incarnation that began (or, restart analysis, adopted) this
    #: transaction: every operation on its behalf reaches the buffer
    #: pool, lock and latch tables and the log through it, so once a
    #: crash retires it, the handle fails instead of acting on the next.
    incarnation: object | None = field(default=None, repr=False, compare=False)

    @property
    def is_active(self) -> bool:
        return self.status is TxnStatus.ACTIVE

    @property
    def is_prepared(self) -> bool:
        return self.status is TxnStatus.PREPARED

    def note_logged(self, lsn: int) -> None:
        """Record that this transaction just wrote the record at ``lsn``."""
        if self.first_lsn == NULL_LSN:
            self.first_lsn = lsn
        self.last_lsn = lsn
        self.undo_next_lsn = lsn

    def __repr__(self) -> str:
        return (
            f"<Txn {self.txn_id} {self.status.value} "
            f"last_lsn={self.last_lsn} undo_next={self.undo_next_lsn}>"
        )
