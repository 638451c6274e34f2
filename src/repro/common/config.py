"""Configuration for a :class:`repro.db.Database` instance.

All tunables live in one frozen dataclass so experiments can state their
parameters declaratively and so ablation benchmarks can flip a single
switch (``enable_sm_bit``, ``enable_delete_bit``, ``tree_latch_mode``)
to demonstrate why each ARIES/IM mechanism exists.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Literal, get_args

from repro.common.errors import ConfigError

TreeLatchMode = Literal["latch", "lock"]


@dataclass(frozen=True)
class DatabaseConfig:
    """Tunables for one database instance.

    Parameters mirror the design choices called out in the paper:

    - ``tree_latch_mode``: ``"latch"`` serializes SMOs with an X tree
      latch (§2.1); ``"lock"`` implements the §5 extension where SMOs
      take the tree lock in IX and upgrade to X only for nonleaf SMOs.
    - ``enable_sm_bit`` / ``enable_delete_bit`` /
      ``enable_boundary_delete_posc``: recovery safeguards from §3;
      disabled only by ablation experiments.
    """

    page_size: int = 4096
    buffer_pool_pages: int = 256
    tree_latch_mode: TreeLatchMode = "latch"
    enable_sm_bit: bool = True
    enable_delete_bit: bool = True
    enable_boundary_delete_posc: bool = True
    lock_timeout_seconds: float = 10.0
    latch_timeout_seconds: float = 10.0
    checkpoint_interval_records: int = 0
    """Write a fuzzy checkpoint every N log records (0 disables)."""

    log_flush_latency_seconds: float = 0.0
    """Simulated device latency charged per synchronous log write
    (0 disables).  The in-memory log makes writes free, which hides the
    cost coalesced forces amortize; benchmarks set this to a realistic
    fsync latency, so a lone committer pays it once per commit and the
    committers queued behind one write pay it once together."""

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

    # Constructor-only, not fields: ``bench/workloads.py`` passes
    # ``group_commit=True, group_commit_max_wait_seconds=0.001``.  Every
    # force coalesces, so only those values are accepted.
    group_commit: InitVar[bool | None] = None
    group_commit_max_wait_seconds: InitVar[float | None] = None

    def __post_init__(
        self, group_commit: bool | None, group_commit_max_wait_seconds: float | None
    ) -> None:
        if group_commit is not None and group_commit is not True:
            raise ConfigError(f"group_commit must be True, got {group_commit!r}")
        if group_commit_max_wait_seconds not in (None, 0.001):
            raise ConfigError(
                "group_commit_max_wait_seconds must be 0.001, got "
                f"{group_commit_max_wait_seconds!r}"
            )
        if self.tree_latch_mode not in get_args(TreeLatchMode):
            raise ConfigError(
                f"tree_latch_mode {self.tree_latch_mode!r} is not one of "
                f"{get_args(TreeLatchMode)}"
            )
        if self.page_size < 512:
            raise ConfigError(f"page_size {self.page_size} is too small (< 512)")
        if self.buffer_pool_pages < 4:
            raise ConfigError("buffer_pool_pages must be at least 4")
        if self.lock_timeout_seconds <= 0 or self.latch_timeout_seconds <= 0:
            raise ConfigError("timeouts must be positive")
        if self.checkpoint_interval_records < 0:
            raise ConfigError("checkpoint_interval_records must be >= 0")
        if self.log_flush_latency_seconds < 0:
            raise ConfigError("log_flush_latency_seconds must be >= 0")
        if self.mvcc_gc_interval_seconds < 0:
            raise ConfigError("mvcc_gc_interval_seconds must be >= 0")


DEFAULT_CONFIG = DatabaseConfig()
