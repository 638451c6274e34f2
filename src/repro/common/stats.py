"""Counter registry and lock-audit trail.

The paper's efficiency measures are *counts*: locks acquired, pages
accessed during redo/undo/normal operation, log passes, synchronous
I/Os (§1).  Every subsystem increments named counters on a shared
:class:`StatsRegistry`; experiments snapshot and diff it.

For Figure 2 (the locking-summary table) counts are not enough — we
need *which* lock, in *which mode*, for *which duration*, on behalf of
*which logical operation*.  The registry therefore also keeps an
optional audit trail of lock and latch acquisitions, tagged with the
operation label installed by the index manager (``"fetch"``,
``"insert"``, ...).
"""

from __future__ import annotations

import threading
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterator


@dataclass(frozen=True, slots=True)
class LockAuditEntry:
    """One recorded lock acquisition."""

    txn_id: int
    name: object
    mode: str
    duration: str
    operation: str
    granted_immediately: bool


@dataclass(frozen=True, slots=True)
class LatchAuditEntry:
    """One recorded latch acquisition."""

    owner: int
    name: object
    mode: str
    operation: str


class StatsRegistry:
    """Thread-safe named counters plus optional audit trails.

    ``incr`` is the hot path (30-odd calls per index operation), so
    counters are *sharded per thread*: each thread bumps a dict that
    only it writes, with no lock, and readers merge the shards under
    the registry lock.  What a reader may rely on:

    - ``snapshot``/``diff``/``get``/``iter_sorted`` see every ``incr``
      that completed before the call on the calling thread, and every
      ``incr`` of a thread that has been joined;
    - an ``incr`` running concurrently on another thread is seen whole
      or not at all — never half-applied, including an ``incr`` of a
      tuple of names, whose counters all move together;
    - ``gauge``/``max_gauge`` stay under the lock (``max_gauge`` is an
      atomic compare-and-raise); a name is either a gauge or a counter,
      never both;
    - ``reset`` orders every concurrent ``incr`` either before it
      (dropped) or after it (kept).

    The server's executor pool hammers one registry from many threads,
    so these guarantees are load-bearing, not decorative — see
    ``tests/common/test_stats.py::TestConcurrency``.

    Shards are bounded by *live* threads: every reader, and every
    thread's first ``incr``, folds the shards of threads that have
    exited into the base dict and drops them.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        #: Gauges, plus the folded counts of threads that have exited.
        self._counters: Counter[str] = Counter()
        #: ``.shard`` is the calling thread's counter dict.
        self._local = threading.local()
        #: (owning thread, its shard) for every thread that has counted.
        self._shards: list[tuple[threading.Thread, dict]] = []
        #: Read by the latch and lock hot paths to skip building an
        #: audit entry nobody asked for.
        self.audit_locks = False
        self.audit_latches = False
        self._lock_audit: list[LockAuditEntry] = []
        self._latch_audit: list[LatchAuditEntry] = []
        self._operation = threading.local()

    # -- counters ---------------------------------------------------------

    def incr(self, name: str | tuple[str, ...], amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount``.

        A tuple of names bumps each of them by ``amount`` in one step
        (the latch counts every acquisition in total and by mode).
        """
        if not self.enabled:
            return
        try:
            shard = self._local.shard
        except AttributeError:
            shard = self._new_shard()
        shard[name] += amount

    def _new_shard(self) -> dict:
        shard: dict = defaultdict(int)
        with self._lock:
            self._fold_exited()
            # ``_local`` is read under the lock: ``reset`` replaces it.
            self._local.shard = shard
            self._shards.append((threading.current_thread(), shard))
        return shard

    @staticmethod
    def _fold(into: dict[str, int], shard: dict) -> None:
        for name, value in shard.items():
            for part in name if type(name) is tuple else (name,):
                into[part] = into.get(part, 0) + value

    def _fold_exited(self) -> None:
        """Move the counts of threads that have exited into the base
        dict and drop their shards, so ``_shards`` is bounded by live
        threads however many come and go.  Caller holds ``_lock``."""
        live = []
        for entry in self._shards:
            thread, shard = entry
            if thread.is_alive():
                live.append(entry)
            else:
                self._fold(self._counters, shard)
        self._shards = live

    def _merged(self) -> dict[str, int]:
        """Base counters plus every live shard."""
        with self._lock:
            self._fold_exited()
            total = dict(self._counters)
            for _, shard in self._shards:
                # ``dict(shard)`` copies in one C call, so the owning
                # thread cannot resize the shard under the iteration.
                self._fold(total, dict(shard))
            return total

    def gauge(self, name: str, value: int) -> None:
        """Set counter ``name`` to an absolute value — progress gauges
        that move in both directions (pages still awaiting recovery)."""
        if not self.enabled:
            return
        with self._lock:
            self._counters[name] = value

    def max_gauge(self, name: str, value: int) -> None:
        """Atomically raise counter ``name`` to ``value`` if higher —
        high-water marks (peak queue depth, peak parked committers)."""
        if not self.enabled:
            return
        with self._lock:
            if value > self._counters.get(name, 0):
                self._counters[name] = value

    def get(self, name: str) -> int:
        return self._merged().get(name, 0)

    def snapshot(self) -> dict[str, int]:
        """Copy of all counters, for later diffing."""
        return self._merged()

    def diff(self, before: dict[str, int]) -> dict[str, int]:
        """Counters changed since ``before`` (only nonzero deltas)."""
        now = self.snapshot()
        out: dict[str, int] = {}
        for name, value in now.items():
            delta = value - before.get(name, 0)
            if delta:
                out[name] = delta
        return out

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            # Drop every shard and the thread-local that points at
            # them: each thread starts a fresh shard on its next
            # ``incr``, and an ``incr`` already past its lookup lands in
            # a dropped dict — ordered before the reset.
            self._shards = []
            self._local = threading.local()
            self._lock_audit.clear()
            self._latch_audit.clear()

    # -- operation labels -------------------------------------------------

    def set_operation(self, label: str) -> None:
        """Tag subsequent audit entries from this thread with ``label``."""
        self._operation.label = label

    def clear_operation(self) -> None:
        self._operation.label = ""

    @property
    def operation(self) -> str:
        return getattr(self._operation, "label", "")

    # -- audit trails -----------------------------------------------------

    def enable_lock_audit(self, latches: bool = False) -> None:
        self.audit_locks = True
        self.audit_latches = latches

    def disable_lock_audit(self) -> None:
        self.audit_locks = False
        self.audit_latches = False

    def record_lock(
        self,
        txn_id: int,
        name: object,
        mode: str,
        duration: str,
        granted_immediately: bool,
    ) -> None:
        if not self.audit_locks:
            return
        entry = LockAuditEntry(
            txn_id=txn_id,
            name=name,
            mode=mode,
            duration=duration,
            operation=self.operation,
            granted_immediately=granted_immediately,
        )
        with self._lock:
            self._lock_audit.append(entry)

    def record_latch(self, owner: int, name: object, mode: str) -> None:
        if not self.audit_latches:
            return
        entry = LatchAuditEntry(
            owner=owner, name=name, mode=mode, operation=self.operation
        )
        with self._lock:
            self._latch_audit.append(entry)

    def lock_audit(self) -> list[LockAuditEntry]:
        with self._lock:
            return list(self._lock_audit)

    def latch_audit(self) -> list[LatchAuditEntry]:
        with self._lock:
            return list(self._latch_audit)

    def clear_audit(self) -> None:
        with self._lock:
            self._lock_audit.clear()
            self._latch_audit.clear()

    # -- reporting --------------------------------------------------------

    def iter_sorted(self) -> Iterator[tuple[str, int]]:
        yield from sorted(self._merged().items())

    def format_table(self, prefix: str = "") -> str:
        """Human-readable counter dump, optionally filtered by prefix."""
        lines = [
            f"{name:<48} {value:>12}"
            for name, value in self.iter_sorted()
            if name.startswith(prefix)
        ]
        return "\n".join(lines)


@dataclass
class OperationProbe:
    """Helper that captures the locks taken by one logical operation.

    Used by the Figure-2 benchmark: wrap each index call in a probe and
    read back the audited entries attributed to it.
    """

    stats: StatsRegistry
    label: str
    entries: list[LockAuditEntry] = field(default_factory=list)
    _start: int = 0

    def __enter__(self) -> "OperationProbe":
        self.stats.enable_lock_audit()
        self._start = len(self.stats.lock_audit())
        self.stats.set_operation(self.label)
        return self

    def __exit__(self, *exc: object) -> None:
        self.stats.clear_operation()
        self.entries = [
            e for e in self.stats.lock_audit()[self._start :] if e.operation == self.label
        ]
