"""Exception hierarchy for the ARIES/IM reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without catching programming errors.
Transaction-visible conditions (deadlock, uniqueness violation, simulated
crash) each get a dedicated class because callers dispatch on them.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class StorageError(ReproError):
    """Base class for storage-layer failures."""


class PageNotFoundError(StorageError):
    """A page id does not exist on the simulated disk."""


class PageOverflowError(StorageError):
    """A page cannot hold the requested payload."""


class BufferPoolFullError(StorageError):
    """No frame could be evicted to make room for a page fix."""


class CorruptPageError(StorageError):
    """A page read from disk failed its integrity check (media damage)."""


class IOFaultError(StorageError):
    """Base class for injected (or real) device-level I/O failures."""


class TransientIOError(IOFaultError):
    """An I/O operation failed but is expected to succeed on retry."""


class PermanentIOError(IOFaultError):
    """An I/O operation failed and retrying cannot help.

    Raised directly by a fault injector for hard device errors, and by
    the retry helper when a transient fault persists past the retry
    budget.  The buffer pool escalates it to ``Database.crash()``.
    """


class WALError(ReproError):
    """Base class for log-manager failures."""


class CorruptLogError(WALError):
    """A log record's frame failed its CRC check."""


class TruncatedLogError(CorruptLogError):
    """A log record's frame is cut short (torn log tail)."""


class LSNOutOfRangeError(WALError):
    """A requested LSN is beyond the durable end of the log."""


class LogHaltedError(WALError):
    """The log manager refused an append because the database crashed.

    Between ``Database.crash()`` and ``Database.restart()`` any thread
    still running a transaction against the dead instance must not be
    allowed to write stale records into the post-crash log; the halt
    makes those threads fail fast instead.
    """


class CommitNotDurableError(WALError):
    """A commit whose log write had not ended when a crash landed.

    The crash landed after the commit queued for its log write and
    before that write ended, so the commit record was lost with the
    volatile log tail.  The caller
    was *not* acknowledged: after restart the transaction is rolled
    back (or, in a narrow window, may have made it to disk — the
    classic indeterminate commit every networked database has).
    """


class ReplicationError(ReproError):
    """Base class for log-shipping replication failures."""


class ArchiveGapError(ReplicationError):
    """A WAL archive chunk does not join contiguously onto the archive
    (log space was discarded without passing through the archiver, so
    point-in-time recovery across the gap is impossible)."""


class SyncReplicationTimeoutError(ReplicationError):
    """A commit waited longer than the configured bound for a standby
    to acknowledge durable receipt of its commit record.

    The commit *is* durable on the primary — the transaction is
    committed locally — but the caller was not acknowledged under the
    synchronous-replication contract, so a failover may or may not
    carry it: the classic in-doubt window, surfaced explicitly.
    """


class StandbyError(ReplicationError):
    """A standby operation was illegal in its current state (e.g. a
    write attempted against a read-only hot standby, or promotion of a
    standby that never finished seeding)."""


class LockError(ReproError):
    """Base class for lock-manager failures."""


class DeadlockError(LockError):
    """The deadlock detector chose this transaction as the victim.

    The transaction must be rolled back by the caller.
    """

    def __init__(self, txn_id: int, cycle: tuple[int, ...]) -> None:
        self.txn_id = txn_id
        self.cycle = cycle
        super().__init__(f"transaction {txn_id} deadlocked (cycle: {cycle})")


class LockNotGrantedError(LockError):
    """A conditional lock or latch request could not be granted immediately."""


class LockTimeoutError(LockError):
    """An unconditional lock request waited longer than the configured bound."""


class LatchError(ReproError):
    """Latch protocol violation (double release, wrong owner, ...)."""


class TransactionError(ReproError):
    """Base class for transaction-state violations."""


class TransactionAbortedError(TransactionError):
    """An operation was attempted on an aborted transaction."""


class TransactionNotActiveError(TransactionError):
    """An operation was attempted on a committed/ended transaction."""


class IndexError_(ReproError):
    """Base class for index-manager failures (named to avoid the builtin)."""


class UniqueKeyViolationError(IndexError_):
    """An insert would create a duplicate key value in a unique index."""

    def __init__(self, key_value: bytes) -> None:
        self.key_value = key_value
        super().__init__(f"duplicate key value {key_value!r} in unique index")


class KeyNotFoundError(IndexError_):
    """A delete named a key that is not present in the index."""


class TreeInconsistentError(IndexError_):
    """A traversal hit a structurally inconsistent tree.

    With the paper's safeguards enabled this is unreachable; the ablation
    benchmarks (E6) disable safeguards to show it surfacing.
    """


class RecoveryError(ReproError):
    """Restart or media recovery failed."""


class RecoveryTimeoutError(RecoveryError):
    """An on-demand page recovery did not finish within the per-request
    budget (instant restart: the fix that triggered lazy recovery waited
    ``ONDEMAND_RECOVERY_TIMEOUT_SECONDS`` for another thread recovering
    the same page)."""


class DatabaseClosedError(ReproError):
    """An operation was attempted on a closed database, on a crashed one
    before ``restart()``, or through a handle — a transaction, an open
    scan, a page pin — from an incarnation a crash or ``close()``
    retired (see ``repro.incarnation``)."""


class ServerError(ReproError):
    """Base class for database-server failures (also the client-side
    stand-in for a server-reported error kind with no local class)."""

    def __init__(self, message: str, kind: str | None = None) -> None:
        self.kind = kind or type(self).__name__
        super().__init__(message)


class ServerOverloadedError(ServerError):
    """Admission control rejected the request: the executor queue was
    full for longer than the admission timeout (backpressure)."""


class RequestTimeoutError(ServerError):
    """A request ran longer than the per-request timeout.  The session
    is closed (its transaction rolled back) because the reply stream is
    no longer in step with the request stream."""


class SessionStateError(ServerError):
    """A request was illegal in the session's current state (e.g. BEGIN
    with a transaction already open)."""


class ProtocolError(ServerError):
    """A malformed frame or message arrived on the wire."""


class ServerShutdownError(ServerError):
    """The server is shutting down and no longer accepts requests."""


class ClusterError(ReproError):
    """Base class for sharding / two-phase-commit failures."""


class TwoPhaseAbortError(ClusterError):
    """A cross-shard transaction was aborted during two-phase commit.

    Raised when a participant voted no (or died) during phase 1, or
    when the coordinator's commit decision could not be made durable.
    Under presumed abort this outcome is *definite*: no participant has
    committed, and any prepared branch resolves to abort at recovery.
    """


class ShardUnavailableError(ClusterError):
    """A shard could not be reached (connection lost or shard down)."""


class SimulatedCrash(ReproError):  # noqa: N818 - reads as an event
    """Raised by an armed failpoint to simulate a system failure.

    Deliberately not a subclass of anything the library's internal retry
    logic would swallow: it propagates to the test harness, which then
    calls ``Database.crash()``.
    """

    def __init__(self, failpoint: str) -> None:
        self.failpoint = failpoint
        super().__init__(f"simulated crash at failpoint {failpoint!r}")
