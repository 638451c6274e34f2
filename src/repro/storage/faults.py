"""Deterministic storage fault injection.

Production storage tears pages (a power failure persists only some
sectors of an in-flight write), throws transient errors (a retry
succeeds), fails hard (the device is gone), and loses the unsynced log
tail mid-record.  The textbook ARIES presentation assumes none of this
happens; this module makes it happen *on purpose*, deterministically,
so the recovery machinery above can be exercised against the failures
it exists to survive.

A :class:`FaultInjector` is seeded and consulted by the
:class:`~repro.storage.disk.DiskManager` on every page read/write and
by :meth:`~repro.db.Database.crash` for WAL-tail loss.  All decisions
are drawn from one seeded RNG, so a single-threaded run with the same
seed replays the same fault schedule (the torture harness depends on
this; multi-threaded call order is outside the determinism contract).

Fault kinds
-----------

- **Torn page write** — the write appears to succeed, but if the
  database crashes before another full write of the same page lands,
  only a prefix or suffix of the page's sectors is actually on disk.
  Detected after restart by the per-page CRC stored inside the image.
- **Transient I/O error** — :class:`TransientIOError` for a bounded run
  of attempts, then success.  Absorbed by retry loops (see
  :func:`with_io_retries`).
- **Permanent I/O error** — :class:`PermanentIOError`; retrying cannot
  help, and the buffer pool escalates to a clean ``Database.crash()``.
- **WAL tail loss** — at crash time, some unforced log bytes beyond the
  forced prefix survive, typically cutting a record mid-frame; restart
  truncates at the first corrupt frame.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Callable, TypeVar

from repro.common.errors import PermanentIOError, TransientIOError
from repro.common.stats import StatsRegistry

T = TypeVar("T")


@dataclass(frozen=True)
class FaultPlan:
    """Probabilities and bounds for one seeded fault schedule.

    All probabilities default to zero, so an all-defaults plan injects
    nothing.  ``max_transient_failures`` bounds how many consecutive
    attempts one transient fault fails before succeeding; it must stay
    below the buffer pool's ``IO_RETRY_ATTEMPTS`` for transient faults to
    be survivable.
    """

    seed: int = 0
    torn_write_probability: float = 0.0
    transient_read_probability: float = 0.0
    transient_write_probability: float = 0.0
    permanent_read_probability: float = 0.0
    permanent_write_probability: float = 0.0
    wal_tail_loss_probability: float = 0.0
    max_transient_failures: int = 2


class FaultInjector:
    """Seeded source of storage-fault decisions.

    One injector serves one database instance.  ``enter_recovery_mode``
    models the post-crash environment: the medium keeps its damage
    (torn pages, lost tail — already applied), the device may still be
    momentarily flaky (transient reads), but hard faults and new tears
    stop, so restart can always complete.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self._mutex = threading.Lock()
        self._armed = True
        self._recovery_mode = False
        #: (op, page_id) → remaining attempts the active transient fault fails.
        self._transient_remaining: dict[tuple[str, int], int] = {}
        self.counters: dict[str, int] = {}
        self._stats: StatsRegistry | None = None

    def attach_stats(self, stats: StatsRegistry) -> None:
        """Mirror every fault counter into ``stats`` as ``faults.<name>``
        so operators see injected faults next to the recovery work they
        caused (``tools.inspect.summarize_stats``)."""
        with self._mutex:
            self._stats = stats
            for name, value in self.counters.items():
                stats.incr(f"faults.{name}", value)

    # -- mode control -------------------------------------------------------

    def disarm(self) -> None:
        """Stop injecting anything (the device was 'replaced')."""
        with self._mutex:
            self._armed = False
            self._transient_remaining.clear()

    def arm(self) -> None:
        with self._mutex:
            self._armed = True

    def enter_recovery_mode(self) -> None:
        """Restrict faults to transient reads (see class docstring)."""
        with self._mutex:
            self._recovery_mode = True
            self._transient_remaining.clear()

    # -- disk hooks ---------------------------------------------------------

    def before_read(self, page_id: int) -> None:
        """May raise :class:`TransientIOError` / :class:`PermanentIOError`."""
        self._maybe_fault(
            "read",
            page_id,
            self.plan.transient_read_probability,
            self.plan.permanent_read_probability,
        )

    def before_write(self, page_id: int) -> None:
        self._maybe_fault(
            "write",
            page_id,
            self.plan.transient_write_probability,
            self.plan.permanent_write_probability,
        )

    def plan_tear(self, page_id: int, n_sectors: int) -> tuple[str, int] | None:
        """Decide whether this write tears if a crash lands before the
        next full write of the page.

        Returns ``None`` (write is atomic) or ``(mode, split)`` where
        ``mode`` is ``"prefix"`` (sectors ``[:split]`` of the new image
        persist) or ``"suffix"`` (sectors ``[split:]`` persist) and
        ``0 < split < n_sectors``.
        """
        with self._mutex:
            if not self._armed or self._recovery_mode or n_sectors < 2:
                return None
            if self._rng.random() >= self.plan.torn_write_probability:
                return None
            mode = "prefix" if self._rng.random() < 0.5 else "suffix"
            split = self._rng.randint(1, n_sectors - 1)
            self._count("torn_writes_planned")
            return mode, split

    # -- crash hooks --------------------------------------------------------

    def tail_loss(self, unforced_bytes: int) -> int:
        """Extra unforced log bytes that survive this crash (0 = the
        tail vanishes at whole-record granularity, the classic model)."""
        with self._mutex:
            if not self._armed or self._recovery_mode or unforced_bytes <= 0:
                return 0
            if self._rng.random() >= self.plan.wal_tail_loss_probability:
                return 0
            self._count("wal_tail_losses")
            return self._rng.randint(1, unforced_bytes)

    # -- internals ----------------------------------------------------------

    def _maybe_fault(
        self, op: str, page_id: int, p_transient: float, p_permanent: float
    ) -> None:
        key = (op, page_id)
        with self._mutex:
            if not self._armed:
                return
            remaining = self._transient_remaining.get(key)
            if remaining is not None:
                if remaining > 0:
                    self._transient_remaining[key] = remaining - 1
                    self._count(f"transient_{op}_faults")
                    raise TransientIOError(
                        f"injected transient {op} fault on page {page_id}"
                    )
                del self._transient_remaining[key]  # the retry that succeeds
                return
            if self._recovery_mode:
                if op == "write":
                    return
                p_permanent = 0.0
            roll = self._rng.random()
            if roll < p_permanent:
                self._count(f"permanent_{op}_faults")
                raise PermanentIOError(
                    f"injected permanent {op} fault on page {page_id}"
                )
            if roll < p_permanent + p_transient:
                self._transient_remaining[key] = self._rng.randint(
                    0, max(self.plan.max_transient_failures - 1, 0)
                )
                self._count(f"transient_{op}_faults")
                raise TransientIOError(
                    f"injected transient {op} fault on page {page_id}"
                )

    def _count(self, name: str) -> None:
        self.counters[name] = self.counters.get(name, 0) + 1
        if self._stats is not None:
            self._stats.incr(f"faults.{name}")


def torn_image(new: bytes, old: bytes, sector_size: int, tear: tuple[str, int]) -> bytes:
    """Mix ``new`` and ``old`` page images at sector granularity.

    Both images must be the same length (the disk pads to a fixed frame
    size).  ``tear`` is the ``(mode, split)`` pair from
    :meth:`FaultInjector.plan_tear`.
    """
    if len(new) != len(old):
        raise ValueError("torn_image requires equal-length images")
    mode, split = tear
    cut = split * sector_size
    if mode == "prefix":
        return new[:cut] + old[cut:]
    return old[:cut] + new[cut:]


def with_io_retries(
    op: Callable[[], T], attempts: int, stats: StatsRegistry | None = None
) -> T:
    """Run ``op``, absorbing up to ``attempts - 1`` transient failures
    (retried at once).  A transient fault that persists across the
    whole budget is promoted to :class:`PermanentIOError`; a permanent
    fault raised by ``op`` propagates immediately.
    """
    last: TransientIOError | None = None
    for _ in range(max(attempts, 1)):
        try:
            return op()
        except TransientIOError as exc:
            last = exc
            if stats is not None:
                stats.incr("io.transient_retries")
    raise PermanentIOError(
        f"transient I/O fault persisted across {attempts} attempts: {last}"
    ) from last
