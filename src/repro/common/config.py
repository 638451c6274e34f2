"""Configuration for a :class:`repro.db.Database` instance.

All tunables live in one frozen dataclass so experiments can state their
parameters declaratively and so ablation benchmarks can flip a single
switch (``enable_sm_bit``, ``enable_delete_bit``, ``tree_latch_mode``)
to demonstrate why each ARIES/IM mechanism exists.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Literal

from repro.common.errors import ConfigError

LockGranularity = Literal["record", "page"]
IndexLockingProtocol = Literal["data_only", "index_specific"]
TreeLatchMode = Literal["latch", "lock"]


@dataclass(frozen=True)
class DatabaseConfig:
    """Tunables for one database instance.

    Parameters mirror the design choices called out in the paper:

    - ``index_locking``: ``"data_only"`` is ARIES/IM's headline protocol
      (the key lock *is* the record lock); ``"index_specific"`` is the
      variant mentioned in §2.1 that explicitly locks keys in the index
      for slightly more concurrency at extra locking cost.
    - ``lock_granularity``: the granularity associated with the table
      (§2.1: "at the locking granularity (page, record, ...) associated
      with the table/file").
    - ``tree_latch_mode``: ``"latch"`` serializes SMOs with an X tree
      latch (§2.1); ``"lock"`` implements the §5 extension where SMOs
      take the tree lock in IX and upgrade to X only for nonleaf SMOs.
    - ``enable_sm_bit`` / ``enable_delete_bit`` /
      ``enable_boundary_delete_posc``: recovery safeguards from §3;
      disabled only by ablation experiments.
    """

    page_size: int = 4096
    buffer_pool_pages: int = 256
    lock_granularity: LockGranularity = "record"
    index_locking: IndexLockingProtocol = "data_only"
    tree_latch_mode: TreeLatchMode = "latch"
    enable_sm_bit: bool = True
    enable_delete_bit: bool = True
    enable_boundary_delete_posc: bool = True
    reset_sm_bits_after_smo: bool = True
    lock_timeout_seconds: float = 10.0
    latch_timeout_seconds: float = 10.0
    deadlock_detection: bool = True
    checkpoint_interval_records: int = 0
    """Write a fuzzy checkpoint every N log records (0 disables)."""

    group_commit: bool = False
    """Coalesce concurrent commit forces into batched synchronous log
    flushes (the first committer to find no flush in progress leads
    one on its own thread; the others park behind it).  Off by default:
    single-threaded experiments want the paper's one-force-per-commit
    accounting."""
    group_commit_max_batch: int = 64
    """Flush as soon as this many commits are parked."""
    group_commit_max_wait_seconds: float = 0.002
    """Upper bound on how long a leader waits for partners before it
    flushes.  The wait is also capped by ``log_flush_latency_seconds``
    (waiting longer than a flush costs cannot pay for itself), so with
    an unpriced flush a commit forces at once."""
    log_flush_latency_seconds: float = 0.0
    """Simulated device latency charged per synchronous log flush
    (0 disables).  The in-memory log makes flushes free, which hides
    the cost group commit exists to amortize; benchmarks set this to a
    realistic fsync latency so one-force-per-commit pays per commit
    while a coalesced flush pays once per batch."""

    mvcc_enabled: bool = True
    """Maintain version stamps and serve lock-free snapshot reads
    (:mod:`repro.mvcc`).  Off, ``begin_snapshot`` raises and the
    write path skips the (cheap) dead-key bookkeeping — the ablation
    baseline for the E19 writer-overhead comparison."""

    mvcc_gc_interval_seconds: float = 0.0
    """Run a version-GC pass (:func:`repro.mvcc.gc.run_mvcc_gc`) every
    this many seconds on a background thread (0 disables — GC stays
    caller-driven).  The pacer skips passes while the database is
    crashed or closing; it exists so concurrent harnesses exercise GC's
    latch ordering under load, not as a tuned production daemon."""

    ondemand_recovery_timeout_seconds: float = 30.0
    """Instant restart: how long a page fix waits for another thread's
    in-flight on-demand recovery of the same page before giving up with
    :class:`~repro.common.errors.RecoveryTimeoutError`."""

    io_retry_limit: int = 4
    """Attempts the buffer pool makes per disk I/O before a transient
    fault is promoted to a permanent one (and escalated to a crash)."""
    io_retry_backoff_seconds: float = 0.0
    """Base of the exponential backoff between I/O retries (0 = no sleep)."""

    stats_enabled: bool = True
    debug_latch_checks: bool = True
    """Assert the paper's invariant that no more than two index-page
    latches are held simultaneously by one transaction."""

    def __post_init__(self) -> None:
        if self.page_size < 512:
            raise ConfigError(f"page_size {self.page_size} is too small (< 512)")
        if self.buffer_pool_pages < 4:
            raise ConfigError("buffer_pool_pages must be at least 4")
        if self.lock_timeout_seconds <= 0 or self.latch_timeout_seconds <= 0:
            raise ConfigError("timeouts must be positive")
        if self.checkpoint_interval_records < 0:
            raise ConfigError("checkpoint_interval_records must be >= 0")
        if self.io_retry_limit < 1:
            raise ConfigError("io_retry_limit must be at least 1")
        if self.ondemand_recovery_timeout_seconds <= 0:
            raise ConfigError("ondemand_recovery_timeout_seconds must be positive")
        if self.group_commit_max_batch < 1:
            raise ConfigError("group_commit_max_batch must be at least 1")
        if self.group_commit_max_wait_seconds < 0:
            raise ConfigError("group_commit_max_wait_seconds must be >= 0")
        if self.log_flush_latency_seconds < 0:
            raise ConfigError("log_flush_latency_seconds must be >= 0")
        if self.io_retry_backoff_seconds < 0:
            raise ConfigError("io_retry_backoff_seconds must be >= 0")
        if self.mvcc_gc_interval_seconds < 0:
            raise ConfigError("mvcc_gc_interval_seconds must be >= 0")

    def with_overrides(self, **kwargs: object) -> "DatabaseConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)  # type: ignore[arg-type]


DEFAULT_CONFIG = DatabaseConfig()
