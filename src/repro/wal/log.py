"""The write-ahead log manager.

The log is a single append-only byte stream.  An LSN is the byte offset
of a record in that stream plus one (so ``NULL_LSN == 0`` is never a
valid record address), which makes LSNs monotonically increasing — the
property ARIES page-state comparison relies on (§1.2).

The stream is stored as sealed segments — immutable ``bytes`` of about
:data:`SEGMENT_BYTES` each, never copied again once sealed — plus one
open ``bytearray`` that appends extend.  A segment is sealed at a frame
boundary, so every CRC frame lies inside one segment and readers decode
straight out of a segment through ``memoryview`` slices.  Nothing else
is kept per record: reading a record decodes its frame again.

Crash semantics: the volatile tail (records appended but not yet
forced) vanishes on :meth:`crash`.  The *master record* — the LSN of
the last complete checkpoint's begin record — is stored in a separate
stable cell and written atomically, like the master record on a real
log device.

Group commit (§1's synchronous-I/O measure is the motivation): when
enabled, the first committer that finds no flush in progress becomes
the *leader* and runs the flush routine on its own thread — take every
parked committer as one batch, force once, settle the batch, and hand
the next flush to the oldest committer that parked meanwhile.
Committers park on their own event, so N commits cost ~1 log I/O
instead of N, and no thread exists only to flush.  The leader waits
for stragglers at most ``min(max_wait, flush price)``: coalescing
cannot save more than one flush costs, so an unpriced flush is forced
at once.  A commit is
acknowledged only after the flush covering its commit record returns;
a crash that lands between batch take and flush resolves the parked
committers — the leader included — with
:class:`CommitNotDurableError` (they were never acknowledged, so
recovery is free to roll them back).
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_right
from typing import Callable, Iterator

from repro.codec.values import RECORD_FRAME, valid_frames_end
from repro.common.errors import (
    CommitNotDurableError,
    CorruptLogError,
    LogHaltedError,
    LSNOutOfRangeError,
    SimulatedCrash,
    WALError,
)
from repro.common.failpoints import FailpointRegistry
from repro.common.stats import StatsRegistry
from repro.wal.records import (
    NULL_LSN,
    LogRecord,
    RecordHeader,
    RecordKind,
    header_from_bytes,
)

#: Size at which the open segment is sealed (a frame larger than this
#: gets a segment of its own).
SEGMENT_BYTES = 1 << 20

#: Group commit: a leader flushes as soon as this many commits are parked.
GROUP_COMMIT_MAX_BATCH = 64

#: The counters one appended record bumps, by kind value: one ``incr``
#: of a tuple moves both.
_APPEND_COUNTERS = {
    kind.value: ("log.records_written", f"log.records.{kind.value}")
    for kind in RecordKind
}


class _CommitWaiter:
    """One committer parked for a group-commit flush.

    ``outcome`` is set exactly once, by whoever resolves the waiter:
    a leader (after its batched force) or :meth:`LogManager.crash`.
    A handed-off leader's own waiter goes through its batch, so a crash
    settles it like any other (a committer that found no leader has no
    waiter: see ``LogManager._gc_lead_target``).  ``leads`` is set, with
    the event, when a stepping-down leader hands the next flush to this
    committer.  Each waiter carries its own event so resolving a batch
    wakes exactly the committers in it — broadcasting on a shared
    condition made every enqueue wake every parked committer (a
    thundering herd that cost ~10% throughput at 16 sessions).
    """

    __slots__ = ("target", "outcome", "leads", "event")

    def __init__(self, target: int) -> None:
        self.target = target  # byte offset the flush must reach
        self.outcome: str | None = None  # "durable" | "lost"
        self.leads = False
        self.event = threading.Event()

    def settle(self, outcome: str) -> None:
        """Resolve the waiter (idempotent-safe under ``_gc_cond``) and
        wake its committer."""
        if self.outcome is None:
            self.outcome = outcome
        self.event.set()


class LogManager:
    """Append-only WAL with explicit force and crash simulation."""

    def __init__(
        self,
        stats: StatsRegistry | None = None,
        failpoints: FailpointRegistry | None = None,
    ) -> None:
        self._stats = stats or StatsRegistry()
        self._failpoints = failpoints or FailpointRegistry()
        self._mutex = threading.Lock()
        #: Sealed segments and the stream offset of each one's first
        #: byte; then the open segment and its stream offset.
        self._sealed: list[bytes] = []
        self._starts: list[int] = []
        self._open = bytearray()
        self._open_start = 0
        self._flushed_len = 0
        self._master_lsn = NULL_LSN
        self._append_count = 0
        #: Bytes dropped from the front by truncation.  LSNs are offsets
        #: into the *whole* stream ever written, so they stay stable.
        self._truncated = 0
        #: Set by Database.crash(): refuse appends until restart begins,
        #: so threads still running against the dead instance fail fast.
        self._halted = False
        # Group commit.  Lock ordering: _gc_cond may be held while
        # taking _mutex, never the other way around.
        self._gc_cond = threading.Condition()
        self._gc_enabled = False
        self._gc_max_wait = 0.002
        self._gc_waiters: list[_CommitWaiter] = []
        self._gc_inflight: list[_CommitWaiter] = []
        #: A committer is running the flush routine, or has been handed
        #: it (there is at most one leader; parked committers imply one).
        self._gc_leading = False
        #: A committer that found no leader leads with no waiter of its
        #: own: its force target, and whether a crash lost it meanwhile
        #: (0 and False while the leader is a handed-off waiter).
        self._gc_lead_target = 0
        self._gc_lead_lost = False
        #: Threads in :meth:`stop_group_commit` waiting for the leader
        #: to step down (a step-down notifies only when there are any).
        self._gc_stoppers = 0
        # Flush notification: waited on by follow-mode iterators (WAL
        # shippers), notified whenever the durable prefix advances and
        # on halt/crash so followers wake promptly.  Own lock; never
        # acquired while holding _mutex (the reverse nesting is fine).
        self._flush_cond = threading.Condition()
        #: Followers inside ``_flush_cond`` (counted before they re-check
        #: ``_flushed_len``); a force notifies only when there are any.
        self._flush_followers = 0
        #: Optional callable ``archiver(first_lsn, data)`` invoked with
        #: the exact byte range about to be discarded by
        #: :meth:`truncate_prefix`, *before* the discard; raising vetoes
        #: the truncation (nothing is lost).
        self._archiver = None
        #: Simulated latency of one synchronous flush, in seconds (0
        #: disables).  The in-memory log makes durability free, which
        #: hides exactly the cost group commit exists to amortize; the
        #: E20 benchmark prices it here.  Flushes serialize on their own
        #: channel lock (one log device), never on ``_mutex``.
        self.flush_latency_seconds = 0.0
        self._io_lock = threading.Lock()

    # -- append / force ----------------------------------------------------

    def append(self, record: LogRecord) -> int:
        """Append ``record``, assign and return its LSN.

        The record is *not* durable until a subsequent :meth:`force`
        covers it.
        """
        # The LSN is not part of the bytes, so encode outside the mutex.
        framed = record.to_bytes()
        with self._mutex:
            if self._halted:
                raise LogHaltedError("log halted by crash; restart first")
            lsn = self._open_start + len(self._open) + 1
            record.lsn = lsn
            if self._open and len(self._open) + len(framed) > SEGMENT_BYTES:
                self._seal_locked()
            self._open += framed
            self._append_count += 1
        self._stats.incr(_APPEND_COUNTERS[record.kind._value_])
        return lsn

    def append_raw(self, base_lsn: int, data: bytes) -> list[LogRecord]:
        """Extend the stream with already-framed records shipped from a
        primary (log-shipping replication).

        ``base_lsn`` must equal :attr:`end_lsn` — shipped chunks are
        byte-exact continuations of the stream, which is what keeps the
        standby's LSNs identical to the primary's.  Every frame in
        ``data`` is validated (CRC) before any byte is adopted; a
        corrupt or partial chunk is rejected whole.  Returns the parsed
        records in LSN order.
        """
        records: list[LogRecord] = []
        offset = 0
        while offset < len(data):
            start = offset
            try:
                record, offset = LogRecord.from_bytes(
                    data, offset, lsn=base_lsn + start
                )
            except CorruptLogError as exc:
                raise WALError(
                    f"shipped chunk corrupt at relative offset {start}: {exc}"
                ) from exc
            records.append(record)
        with self._mutex:
            if self._halted:
                raise LogHaltedError("log halted by crash; restart first")
            expected = self._open_start + len(self._open) + 1
            if base_lsn != expected:
                raise WALError(
                    f"shipped chunk starts at LSN {base_lsn}; log ends at {expected}"
                )
            self._extend_locked(data)
            self._append_count += len(records)
        self._stats.incr("log.records_shipped_in", len(records))
        return records

    def rebase(self, base_lsn: int) -> None:
        """Make the *empty* log continue a stream at ``base_lsn``.

        A standby seeded from a primary's image copy adopts the
        primary's LSN space: its first shipped record must receive the
        same LSN it has on the primary.  LSNs are byte offsets, so this
        just pretends the first ``base_lsn - 1`` bytes were truncated.
        """
        with self._mutex:
            if self._sealed or self._open or self._truncated:
                raise WALError("rebase requires a pristine (empty) log")
            self._truncated = self._open_start = base_lsn - 1
            self._flushed_len = self._truncated

    def load_stream(self, base_lsn: int, data: bytes) -> None:
        """Adopt ``data`` as the durable log stream starting at
        ``base_lsn`` (point-in-time restore assembles this from the
        archive plus the live log).  The whole stream counts as forced —
        it came from stable storage."""
        self.rebase(base_lsn)
        with self._mutex:
            self._extend_locked(data)
            self._flushed_len = self._truncated + len(data)

    def raw_slice(self, from_lsn: int, upto: int | None = None) -> bytes:
        """The raw stream bytes for LSNs in ``[from_lsn, upto)`` (both
        byte positions; ``upto=None`` means the current end).  Used by
        the WAL shipper and point-in-time restore; only whole frames
        should be shipped — callers bound ``upto`` at record/flush
        boundaries."""
        with self._mutex:
            end = self._open_start + len(self._open) + 1
            if upto is None:
                upto = end
            upto = min(upto, end)
            if from_lsn <= self._truncated:
                raise LSNOutOfRangeError(
                    f"LSN {from_lsn} was truncated away (archive required)"
                )
            if from_lsn >= upto:
                return b""
            return self._copy_locked(from_lsn - 1, upto - 1)

    def force(self, lsn: int | None = None) -> None:
        """Make the log durable up to and including ``lsn`` (or all of it).

        Counts one synchronous log I/O if any bytes actually move.
        """
        with self._mutex:
            target = self._force_target_locked(lsn)
            if target <= self._flushed_len:
                return  # already durable
        self._force_bytes(target)

    def _force_target_locked(self, lsn: int | None) -> int:
        """Byte offset a force covering ``lsn`` must reach (mutex held):
        the end of the frame at ``lsn``, read from the stream."""
        end = self._open_start + len(self._open)
        if lsn is None or lsn == NULL_LSN:
            return end
        pos = lsn - 1
        if self._truncated <= pos and pos + RECORD_FRAME.size <= end:
            segment, offset = self._locate_locked(pos)
            if offset + RECORD_FRAME.size <= len(segment):
                _, length = RECORD_FRAME.unpack_from(segment, offset)
                return min(pos + RECORD_FRAME.size + length, end)
        # Truncated away (so already durable) or past the end: forcing
        # to at least ``lsn`` bytes is always safe.
        return min(lsn, end)

    def _force_bytes(self, target: int) -> int:
        """Make the stream durable up to byte offset ``target``; returns
        the durable length."""
        with self._mutex:
            target = min(target, self._open_start + len(self._open))
            if target <= self._flushed_len:
                return self._flushed_len
            self._flushed_len = target
        latency = self.flush_latency_seconds
        if latency > 0.0:
            # Price the device write before acknowledging anyone:
            # the caller (a committer, or a group commit's leader)
            # returns — and acks — only after the simulated I/O.
            with self._io_lock:
                time.sleep(latency)
        # A follower counts itself before it re-checks _flushed_len,
        # which was raised above: it either is counted here or sees the
        # new length, so skipping the notify loses no wake-up.
        if self._flush_followers:
            with self._flush_cond:
                self._flush_cond.notify_all()
        self._stats.incr("log.sync_forces")
        return target

    # -- group commit ------------------------------------------------------

    def start_group_commit(self, max_wait_seconds: float = 0.002) -> None:
        """Turn group commit on: :meth:`force_for_commit` now coalesces
        concurrent committers' forces.  Idempotent."""
        with self._gc_cond:
            self._gc_enabled = True
            self._gc_max_wait = max_wait_seconds

    def stop_group_commit(self) -> None:
        """Turn group commit off; later commits force individually.
        Waits until no leader is active — leadership passes down the
        parked committers until every one of them is acknowledged."""
        with self._gc_cond:
            self._gc_enabled = False
            # Cut a leader's coalescing window short.
            self._gc_cond.notify_all()
            self._gc_stoppers += 1
            try:
                while self._gc_leading:
                    self._gc_cond.wait()
            finally:
                self._gc_stoppers -= 1

    @property
    def group_commit_enabled(self) -> bool:
        with self._gc_cond:
            return self._gc_enabled

    @property
    def group_commit_parked(self) -> int:
        """Committers currently parked (enqueued or mid-flush, the
        leader included) — the torture harness uses this to aim a
        crash at the take→flush window."""
        with self._gc_cond:
            return (
                len(self._gc_waiters)
                + len(self._gc_inflight)
                + (self._gc_lead_target > 0)
            )

    def force_for_commit(self, lsn: int) -> None:
        """Durability point of a commit.

        With group commit off this is exactly :meth:`force`.  With it
        on, the committer either leads — runs :meth:`_lead_flush` on its
        own thread, covering itself and everyone parked at that moment —
        or, when a flush is already in progress, parks until a leader's
        flush covers its commit record (or hands it the next flush).
        A committer that finds no leader has nobody parked ahead of it
        either, so it leads without a waiter of its own.  Raises
        :class:`CommitNotDurableError` if a crash wins the race (the
        commit was never acknowledged).
        """
        # Read unlocked: the decision is re-checked under the condition.
        if not self._gc_enabled:
            self.force(lsn)
            return
        self._stats.incr("log.group_commit_requests")
        waiter = None
        with self._gc_cond:
            # Atomic with crash resolution: halt is set before crash()
            # settles parked waiters, so we either see the halt here or
            # get settled by the crash — never park forever.
            with self._mutex:
                if self._halted:
                    raise CommitNotDurableError(
                        f"commit at LSN {lsn} lost: log halted by crash"
                    )
                target = self._force_target_locked(lsn)
                if target <= self._flushed_len:
                    return  # already durable (a later force covered it)
            if not self._gc_enabled:
                lead = False  # lost a race with stop_group_commit()
            elif not self._gc_leading:
                # No leader, so nobody is parked: lead, waiter-less.
                self._gc_leading = lead = True
                self._gc_lead_target = target
            else:
                lead = False
                waiter = _CommitWaiter(target)
                self._gc_waiters.append(waiter)
                if (
                    len(self._gc_waiters) + (self._gc_lead_target > 0)
                    >= GROUP_COMMIT_MAX_BATCH
                ):
                    # A full batch closes the leader's window early.
                    self._gc_cond.notify()
        if lead:
            durable = self._lead_flush(target)
        elif waiter is None:
            self._force_bytes(target)
            return
        else:
            # Park outside the condition: a leader signals this
            # waiter's own event, nobody else's.
            waiter.event.wait()
            if waiter.leads:
                self._lead_flush()
            durable = waiter.outcome == "durable"
        if not durable:
            raise CommitNotDurableError(
                f"commit at LSN {lsn} lost: crash before the batched flush"
            )

    def _lead_flush(self, own: int = 0) -> bool:
        """The flush routine, run by the leading committer on its own
        thread: take every parked committer as one batch, force once
        (covering ``own``, the target of a leader with no waiter; a
        handed-off leader's waiter is in the batch), settle the batch.
        Then step down — or, when committers parked during the flush,
        hand the next flush to the oldest of them.  Handing off instead
        of looping lets a leader return (and, above it, release its
        locks) as soon as its own commit is durable.  Returns whether
        ``own`` is durable.

        The window for stragglers is bounded by what a flush costs:
        waiting longer than one flush to save one flush loses, so an
        unpriced flush (``flush_latency_seconds == 0``) is forced at
        once and ``max_wait`` is only the upper bound."""
        window = min(self._gc_max_wait, self.flush_latency_seconds)
        solo = own > 0
        try:
            with self._gc_cond:
                if window > 0.0:
                    deadline = time.monotonic() + window
                    while self._gc_enabled and (
                        0 < len(self._gc_waiters) + solo < GROUP_COMMIT_MAX_BATCH
                    ):
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            break
                        self._gc_cond.wait(remaining)
                batch = self._gc_inflight = self._gc_waiters
                self._gc_waiters = []
            durable = NULL_LSN  # a crash settled everyone: nothing to force
            if batch or solo:
                try:
                    # The take→flush window: the batch is taken, nothing
                    # is forced yet.  A test pauses here to land a crash
                    # on committers that are certainly parked.
                    self._failpoints.hit("log.group_commit.before_flush")
                except SimulatedCrash:
                    # A dead machine forces nothing.  ``Database.crash``
                    # has settled the batch already; a bare crash-armed
                    # point has not, and its committers must not park
                    # forever.
                    pass
                else:
                    # ONE synchronous I/O for the batch.
                    durable = self._force_bytes(
                        max([own, *(w.target for w in batch)])
                    )
        except BaseException:
            # Nobody may stay parked behind a leader that died.
            with self._gc_cond:
                self._gc_leading = False
                self._gc_lead_target = 0
                self._gc_lead_lost = False
                self._resolve_waiters_after_crash()
            raise
        with self._gc_cond:
            resolved = 0
            for waiter in batch:
                # A crash may have settled it first; settle() keeps the
                # first outcome and (re-)sets the event.
                waiter.settle("durable" if waiter.target <= durable else "lost")
                resolved += waiter.outcome == "durable"
            own_durable = solo and own <= durable and not self._gc_lead_lost
            resolved += own_durable
            self._gc_lead_target = 0
            self._gc_lead_lost = False
            if self._gc_inflight is batch:
                self._gc_inflight = []
            if self._gc_waiters:
                successor = self._gc_waiters[0]
                successor.leads = True
                successor.event.set()
            else:
                self._gc_leading = False
                if self._gc_stoppers:
                    self._gc_cond.notify_all()
        if durable != NULL_LSN:
            self._stats.incr("log.group_commit_batches")
            if resolved > 1:
                self._stats.incr("log.group_commit_flushes_saved", resolved - 1)
        return own_durable

    def _resolve_waiters_after_crash(self) -> None:
        """Settle every parked committer: durable if its bytes made the
        forced prefix, lost otherwise (it was never acknowledged)."""
        with self._gc_cond:
            durable = self.flushed_lsn
            pending = self._gc_waiters + self._gc_inflight
            self._gc_waiters = []
            self._gc_inflight = []
            lost = 0
            if self._gc_lead_target > durable and not self._gc_lead_lost:
                # A waiter-less leader learns it when it settles.
                self._gc_lead_lost = True
                lost += 1
            for waiter in pending:
                if waiter.outcome is None and waiter.target > durable:
                    lost += 1
                waiter.settle(
                    "durable" if waiter.target <= durable else "lost"
                )
            self._gc_cond.notify_all()
        if lost:
            self._stats.incr("log.group_commit_lost_in_crash", lost)

    # -- crash halt --------------------------------------------------------

    def halt(self) -> None:
        """Refuse appends until :meth:`resume` (set by Database.crash so
        straggler threads cannot write stale records post-crash)."""
        with self._mutex:
            self._halted = True
        # Followers parked for new records must observe the halt.
        with self._flush_cond:
            self._flush_cond.notify_all()

    def resume(self) -> None:
        with self._mutex:
            self._halted = False

    @property
    def halted(self) -> bool:
        with self._mutex:
            return self._halted

    @property
    def flushed_lsn(self) -> int:
        """LSN boundary of durability: records with ``lsn`` at or below
        the last fully flushed record survive a crash."""
        with self._mutex:
            return self._flushed_len

    def wait_for_flush(self, lsn: int, timeout: float) -> int:
        """Block until the durable prefix reaches byte position ``lsn``,
        the log halts, or ``timeout`` elapses.  Returns the durable
        position at wake-up.  This is the long-poll primitive the WAL
        shipper parks replication polls on."""
        deadline = time.monotonic() + timeout
        while True:
            with self._flush_cond:
                self._flush_followers += 1
                try:
                    with self._mutex:
                        if self._flushed_len >= lsn or self._halted:
                            return self._flushed_len
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        with self._mutex:
                            return self._flushed_len
                    self._flush_cond.wait(min(remaining, 0.05))
                finally:
                    self._flush_followers -= 1

    def force_target(self, lsn: int) -> int:
        """Byte position a force covering ``lsn`` must reach — also the
        ack level a standby must report before a synchronous-replication
        commit at ``lsn`` may be acknowledged."""
        with self._mutex:
            return self._force_target_locked(lsn)

    @property
    def records_appended(self) -> int:
        """Count of records appended over this manager's lifetime
        (drives interval-based auto-checkpointing)."""
        with self._mutex:
            return self._append_count

    @property
    def end_lsn(self) -> int:
        """LSN that the *next* appended record will receive."""
        with self._mutex:
            return self._open_start + len(self._open) + 1

    @property
    def unforced_bytes(self) -> int:
        """Bytes appended but not yet covered by a force."""
        with self._mutex:
            return self._open_start + len(self._open) - self._flushed_len

    @property
    def truncation_point(self) -> int:
        """Smallest LSN still present (1 if never truncated)."""
        with self._mutex:
            return self._truncated + 1

    @property
    def sealed_segments(self) -> int:
        """Sealed (immutable) segments the retained stream spans."""
        with self._mutex:
            return len(self._sealed)

    # -- segments ------------------------------------------------------------

    def _seal_locked(self) -> None:
        """Freeze the open segment and start an empty one (mutex held)."""
        self._sealed.append(bytes(self._open))
        self._starts.append(self._open_start)
        self._open_start += len(self._open)
        self._open = bytearray()

    def _extend_locked(self, data: bytes) -> None:
        """Append a run of frames, sealing only at frame boundaries
        (mutex held).  Frames are found by their length fields alone; a
        cut-short or garbled tail goes in as it is — readers stop at it
        and :meth:`repair_tail` drops it."""
        with memoryview(data) as view:
            start = offset = 0
            while offset + RECORD_FRAME.size <= len(view):
                _, length = RECORD_FRAME.unpack_from(view, offset)
                end = offset + RECORD_FRAME.size + length
                if end > len(view):
                    break
                if (
                    len(self._open) + end - start > SEGMENT_BYTES
                    and (self._open or offset > start)
                ):
                    self._open += view[start:offset]
                    self._seal_locked()
                    start = offset
                offset = end
            self._open += view[start:]

    def _locate_locked(self, pos: int) -> tuple[bytes | bytearray, int]:
        """The segment holding stream offset ``pos`` (at or after the
        truncation point) and ``pos``'s offset inside it (mutex held)."""
        if pos >= self._open_start:
            return self._open, pos - self._open_start
        index = bisect_right(self._starts, pos) - 1
        return self._sealed[index], pos - self._starts[index]

    def _pieces_locked(self, lo: int, hi: int) -> list[tuple[int, bytes | memoryview]]:
        """Stream offsets ``[lo, hi)`` as ``(offset, buffer)`` pieces, one
        per segment touched (mutex held).  Sealed parts are zero-copy
        views; the open part is copied, so the pieces stay valid after
        the mutex is released."""
        pieces: list[tuple[int, bytes | memoryview]] = []
        index = max(bisect_right(self._starts, lo) - 1, 0)
        for start, segment in zip(self._starts[index:], self._sealed[index:]):
            if start >= hi:
                break
            a = max(lo - start, 0)
            b = min(hi - start, len(segment))
            if b > a:
                pieces.append((start + a, memoryview(segment)[a:b]))
        a = max(lo - self._open_start, 0)
        b = hi - self._open_start
        if b > a:
            pieces.append((self._open_start + a, bytes(self._open[a:b])))
        return pieces

    def _copy_locked(self, lo: int, hi: int) -> bytes:
        """Stream offsets ``[lo, hi)`` as one ``bytes`` (mutex held)."""
        return b"".join(piece for _, piece in self._pieces_locked(lo, hi))

    def _cut_locked(self, end: int) -> None:
        """Drop every stream byte from offset ``end`` on (mutex held).
        A cut inside a sealed segment makes its head the open one."""
        if end >= self._open_start:
            del self._open[end - self._open_start :]
            return
        index = max(bisect_right(self._starts, end) - 1, 0)
        start = self._starts[index]
        self._open = bytearray(self._sealed[index][: end - start])
        self._open_start = start
        del self._sealed[index:]
        del self._starts[index:]

    # -- master record -------------------------------------------------------

    def write_master(self, checkpoint_begin_lsn: int) -> None:
        """Atomically record the last complete checkpoint's begin LSN."""
        with self._mutex:
            self._master_lsn = checkpoint_begin_lsn
        self._stats.incr("log.master_writes")

    @property
    def master_lsn(self) -> int:
        with self._mutex:
            return self._master_lsn

    # -- reading -------------------------------------------------------------

    def read(self, lsn: int) -> LogRecord:
        """Return the record at ``lsn``, decoded from the stream."""
        with self._mutex:
            truncated = self._truncated
            end = self._open_start + len(self._open)
            if truncated < lsn <= end:
                segment, offset = self._locate_locked(lsn - 1)
                if segment is self._open:
                    # Copy the one frame out: the open segment keeps
                    # growing once the mutex is released.  A frame cut
                    # short copies what there is, and its decode fails.
                    if offset + RECORD_FRAME.size <= len(segment):
                        _, length = RECORD_FRAME.unpack_from(segment, offset)
                        frame_end = offset + RECORD_FRAME.size + length
                    else:
                        frame_end = len(segment)
                    segment = bytes(segment[offset:frame_end])
                    offset = 0
        if lsn <= truncated:
            raise LSNOutOfRangeError(f"LSN {lsn} was truncated away")
        if not 1 <= lsn <= end:
            raise LSNOutOfRangeError(f"LSN {lsn} beyond log end {end}")
        record, _ = LogRecord.from_bytes(segment, offset, lsn=lsn)
        return record

    def records(
        self,
        from_lsn: int = 1,
        follow: bool = False,
        stop: "Callable[[], bool] | None" = None,
        poll_interval: float = 0.05,
    ) -> Iterator[LogRecord]:
        """Iterate records in LSN order starting at ``from_lsn``.

        Default mode iterates a snapshot of the current log contents;
        records appended concurrently are not included.  Iteration stops
        cleanly at the first record whose frame is truncated or fails
        its CRC — a torn log tail ends the usable log rather than
        raising (the analysis pass depends on this; :meth:`repair_tail`
        physically discards the damage).

        ``follow=True`` is the WAL shipper's mode: the iterator yields
        only records whose frames are entirely inside the *durable*
        (forced) prefix — never past :attr:`flushed_lsn`, so a standby
        cannot observe non-durable commits — and, when caught up, parks
        on the flush-notification condition variable (bounded waits of
        ``poll_interval`` between re-checks of ``stop``) instead of
        busy-polling.  The iterator ends when ``stop()`` returns true or
        the log halts (crash).
        """
        if follow:
            return self._follow_records(from_lsn, stop, poll_interval)
        return self._scan(from_lsn, LogRecord.from_bytes)

    def record_headers(self, from_lsn: int = 1) -> Iterator[RecordHeader]:
        """Iterate record *headers* in LSN order — every field but the
        payload — without ever decoding payload bytes.

        Analysis, the instant-restart page index and the restart-time
        transaction-id and commit scans need only these.  Like
        :meth:`records`, iteration stops cleanly at the first torn
        frame.
        """
        return self._scan(from_lsn, header_from_bytes)

    def _scan(self, from_lsn: int, decode) -> Iterator:
        with self._mutex:
            lo = max(from_lsn - 1, self._truncated)
            pieces = self._pieces_locked(lo, self._open_start + len(self._open))
        for start, buffer in pieces:
            offset = 0
            size = len(buffer)
            while offset < size:
                try:
                    item, next_offset = decode(
                        buffer, offset, lsn=start + offset + 1
                    )
                except CorruptLogError:
                    self._stats.incr("log.tail_frame_errors")
                    return
                yield item
                offset = next_offset

    def _follow_records(
        self,
        from_lsn: int,
        stop: "Callable[[], bool] | None",
        poll_interval: float,
    ) -> Iterator[LogRecord]:
        next_lsn = max(from_lsn, 1)
        while True:
            if stop is not None and stop():
                return
            with self._mutex:
                halted = self._halted
                if next_lsn <= self._truncated:
                    raise LSNOutOfRangeError(
                        f"LSN {next_lsn} was truncated away (archive required)"
                    )
                pieces = self._pieces_locked(next_lsn - 1, self._flushed_len)
            for start, buffer in pieces:
                offset = 0
                while offset < len(buffer):
                    try:
                        record, next_offset = LogRecord.from_bytes(
                            buffer, offset, lsn=start + offset + 1
                        )
                    except CorruptLogError:
                        # The durable prefix ends mid-frame (a torn tail a
                        # crash left behind): nothing more to ship until
                        # repair or until the flush boundary moves past it.
                        break
                    yield record
                    offset = next_offset
                next_lsn = start + offset + 1
                if offset < len(buffer):
                    break
            if halted:
                return
            # Caught up: park until the durable prefix advances.  The
            # re-check under the condition avoids a missed wakeup (the
            # notifier bumps _flushed_len before it reads the follower
            # count, which is raised before the re-check).
            with self._flush_cond:
                self._flush_followers += 1
                try:
                    with self._mutex:
                        ready = self._flushed_len >= next_lsn or self._halted
                    if not ready:
                        self._flush_cond.wait(poll_interval)
                finally:
                    self._flush_followers -= 1

    def tail(self, count: int) -> list[LogRecord]:
        """The last ``count`` records (for log-sequence assertions)."""
        everything = list(self.records())
        return everything[-count:]

    # -- truncation ---------------------------------------------------------

    def set_archiver(
        self, archiver: Callable[[int, bytes], None] | None
    ) -> None:
        """Install ``archiver(first_lsn, data)``, called by
        :meth:`truncate_prefix` with the exact byte range about to be
        discarded, *before* anything is dropped.  If it raises, the
        truncation is vetoed — no log space is lost.  This is how the
        WAL archive guarantees the full record history survives
        truncation (point-in-time recovery depends on it)."""
        with self._mutex:
            self._archiver = archiver

    def truncate_prefix(self, lsn: int) -> int:
        """Discard log space before ``lsn`` (exclusive).

        The caller (``Database.trim_log``) must have established that
        no recovery pass can need the discarded prefix: ``lsn`` at or
        below the master checkpoint, every dirty page's recLSN, and
        every active transaction's first record.  Returns the number of
        bytes reclaimed.  Only durable (forced) space is reclaimable.

        When an archiver is installed (:meth:`set_archiver`) the doomed
        bytes are handed to it first; an archiver failure vetoes the
        truncation.
        """
        with self._mutex:
            target = min(lsn - 1, self._flushed_len)
            if target <= self._truncated:
                return 0
            archiver = self._archiver
            chunk = (
                self._copy_locked(self._truncated, target)
                if archiver is not None
                else b""
            )
            first_lsn = self._truncated + 1
        if archiver is not None:
            # Outside the mutex: archivers may do real I/O.  Raising
            # here aborts the truncation with nothing discarded.
            archiver(first_lsn, chunk)
        with self._mutex:
            # Recompute against the same target: a concurrent append
            # can't move _truncated (truncation is single-threaded via
            # Database.trim_log), so the archived range still exactly
            # covers what we drop.
            drop = target - self._truncated
            if drop <= 0:
                return 0
            # Whole segments go; at most one is sliced.
            while self._sealed and self._starts[0] + len(self._sealed[0]) <= target:
                del self._sealed[0]
                del self._starts[0]
            if self._sealed and self._starts[0] < target:
                self._sealed[0] = self._sealed[0][target - self._starts[0] :]
                self._starts[0] = target
            elif not self._sealed:
                del self._open[: target - self._open_start]
                self._open_start = target
            self._truncated = target
        self._stats.incr("log.bytes_reclaimed", drop)
        return drop

    # -- tail repair ---------------------------------------------------------

    def repair_tail(self) -> int:
        """Validate the log stream and discard a corrupt/partial tail.

        Walks every surviving frame from the truncation point; the first
        frame that is cut short or fails its CRC (a torn tail persisted
        by :meth:`crash`) ends the usable log, and everything from there
        on is physically dropped.  Restart calls this before analysis.
        Only the frames are validated (the CRC covers the whole body),
        so the walk costs one checksum per record, not a record parse —
        this runs in the dark window before an instant restart opens.
        Returns the number of bytes discarded.
        """
        with self._mutex:
            end = self._open_start + len(self._open)
            limit = end
            for start, buffer in self._pieces_locked(self._truncated, end):
                offset = valid_frames_end(buffer)
                if offset < len(buffer):
                    limit = start + offset
                    break
            dropped = end - limit
            if dropped:
                self._cut_locked(limit)
                self._flushed_len = min(self._flushed_len, limit)
        if dropped:
            self._stats.incr("log.tail_bytes_discarded", dropped)
        return dropped

    # -- crash simulation -----------------------------------------------------

    def crash(self, keep_partial_tail: int = 0) -> None:
        """Discard the volatile tail; only forced bytes survive.

        ``keep_partial_tail`` models the torn tail real log devices hit:
        that many *additional* unforced bytes beyond the forced prefix
        are left behind on stable storage, typically cutting the next
        record mid-frame.  (The extra bytes may also happen to cover
        whole records — those genuinely reached the device and recovery
        is entitled to use them.)  Recovery detects and drops a partial
        suffix via :meth:`repair_tail`.
        """
        with self._mutex:
            keep = self._flushed_len
            if keep_partial_tail > 0:
                keep = min(
                    keep + keep_partial_tail, self._open_start + len(self._open)
                )
            self._cut_locked(keep)
            # Whatever survived is on stable storage by definition.
            self._flushed_len = keep
        # Committers parked for a group-commit flush are settled now:
        # durable if their record made the forced prefix, lost if the
        # crash beat the batched flush.
        self._resolve_waiters_after_crash()
        # Wake follow-mode iterators so they notice the halt promptly.
        with self._flush_cond:
            self._flush_cond.notify_all()
        self._stats.incr("log.crashes")
