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

Forcing (§1 counts synchronous log I/Os): one routine serves every
force, a commit's and a WAL-rule page flush's alike.  A caller whose
target a *finished* write covers returns at once; any other raises the
shared wanted mark to its target and queues on the log device.  Holding
the device, it finds its target covered by the write it queued behind,
or it writes everything queued so far, pays the device price, and only
then raises the durable mark.  (An unpriced write to an idle device,
with no failpoint armed, is made at once under the log mutex.)  So one
write's batch is whoever arrived during the previous write, and nobody
is acknowledged before the write covering it has ended.  A crash
decides each force it overtakes by the prefix it kept, however far the
resumed log grows; after a halt no write starts.  A lost commit raises
:class:`CommitNotDurableError` (it was never acknowledged, so recovery
rolls it back), any other force :class:`LogHaltedError`.
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

#: The counters one appended record bumps, by kind value: one ``incr``
#: of a tuple moves both.
_APPEND_COUNTERS = {
    kind.value: ("log.records_written", f"log.records.{kind.value}")
    for kind in RecordKind
}

#: How often a force queued for the log device looks for a halt or a
#: crash (a writer paused ahead of it may never resume).
_QUEUE_RECHECK_SECONDS = 0.02

#: The failpoint a commit force hits after it queues, before it writes.
_BEFORE_WRITE = "log.group_commit.before_flush"

#: The outcomes of a force, each the tuple of counters a commit force
#: with that outcome bumps (a plain force counts only its write).
_COVERED = ("log.group_commit_requests",)
_SAVED = ("log.group_commit_requests", "log.group_commit_flushes_saved")
_WROTE = ("log.group_commit_requests", "log.group_commit_batches", "log.sync_forces")
_LOST = ("log.group_commit_requests", "log.group_commit_lost_in_crash")


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
        #: The prefix each crash kept, in crash order (its length is
        #: the crash count): it decides the forces that crash overtook.
        self._kept: list[int] = []
        #: The highest target a queued force has asked for; the next
        #: write covers it.
        self._force_wanted = 0
        #: Where the write in progress ends (0 when none is): a halt
        #: does not release the forces it covers.
        self._writing = 0
        #: Callers inside a force (:attr:`group_commit_parked`).
        self._forcers = 0
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
        #: hides exactly the cost coalesced forces amortize; E15 and
        #: E20 price it here.
        self.flush_latency_seconds = 0.0
        #: The log device: a queued force holds it from its coverage
        #: check through its write.  Taken before ``_mutex``, never
        #: while holding it.
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
            self._force_wanted = 0

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

        Counts one synchronous log I/O if this caller writes.  Raises
        :class:`LogHaltedError` if a crash beats the write.
        """
        self._force(lsn, False)

    def force_for_commit(self, lsn: int) -> None:
        """Durability point of a commit: :meth:`force`, counted as a
        commit, stopping at the ``log.group_commit.before_flush``
        failpoint before it writes.  Raises
        :class:`CommitNotDurableError` if a crash beats the write (the
        commit was never acknowledged)."""
        self._force(lsn, True)

    @property
    def group_commit_parked(self) -> int:
        """Callers inside a force that no finished write covered:
        queued for the device or writing (the torture harness aims a
        crash at this window)."""
        with self._mutex:
            return self._forcers

    def _force(self, lsn: int | None, commit: bool) -> None:
        """The one force routine (see the module docstring)."""
        with self._mutex:
            target = self._force_target_locked(lsn)
            crashes = len(self._kept)
            if target <= self._flushed_len:
                outcome = _COVERED
            elif self._halted and target > self._writing:
                outcome = _LOST  # no write starts after a halt
            else:
                outcome = None
                if target > self._force_wanted:
                    self._force_wanted = target
                if (
                    not self.flush_latency_seconds
                    and not (commit and self._failpoints.armed(_BEFORE_WRITE))
                    and not self._io_lock.locked()
                ):
                    # An idle device and a write that costs nothing:
                    # the write ends here.
                    self._flushed_len = self._write_end_locked()
                    outcome = _WROTE
                else:
                    self._forcers += 1
        if outcome is None:
            try:
                outcome = self._queue(target, crashes, commit)
            finally:
                with self._mutex:
                    self._forcers -= 1
        if outcome is _WROTE and self._flush_followers:
            # A follower counts itself before it re-checks _flushed_len,
            # which was raised above: it either is counted here or sees
            # the new length, so skipping the notify loses no wake-up.
            with self._flush_cond:
                self._flush_cond.notify_all()
        if commit:
            self._stats.incr(outcome)
        elif outcome is _WROTE:
            self._stats.incr("log.sync_forces")
        if outcome is _LOST:
            if commit:
                raise CommitNotDurableError(
                    f"commit at LSN {lsn} lost: crash before its write"
                )
            raise LogHaltedError(f"force to LSN {lsn} lost: log halted by crash")

    def _queue(self, target: int, crashes: int, commit: bool) -> tuple[str, ...]:
        """Wait for the log device, then :meth:`_write` holding it."""
        # A halt or crash releases the queue: the writer ahead may be
        # paused for good, and a page flush queued here holds the pool
        # mutex that retiring the crashed incarnation takes.
        while not self._io_lock.acquire(timeout=_QUEUE_RECHECK_SECONDS):
            with self._mutex:
                outcome = self._settle_locked(target, crashes)
            if outcome is not None:
                return outcome
        try:
            return self._write(target, crashes, commit)
        finally:
            self._io_lock.release()

    def _write(self, target: int, crashes: int, commit: bool) -> tuple[str, ...]:
        """A queued force holding the device: its target is covered by
        the write it queued behind, or it writes every queued target,
        pays the device price, and only then raises the durable mark."""
        # Unlocked read: while this caller holds the device, nobody
        # else raises the mark.
        if commit and target > self._flushed_len:
            try:
                # A test pauses here to land a crash on a write not yet
                # made, with the callers queued behind it.
                self._failpoints.hit(_BEFORE_WRITE)
            except SimulatedCrash:
                # A dead machine writes nothing: what survives decides.
                with self._mutex:
                    return self._settle_locked(target, crashes) or _LOST
        with self._mutex:
            outcome = self._settle_locked(target, crashes)
            if outcome is not None:
                return outcome
            upto = self._writing = self._write_end_locked()
        if self.flush_latency_seconds:
            time.sleep(self.flush_latency_seconds)
        with self._mutex:
            self._writing = 0
            if crashes != len(self._kept):
                # The crash cut what was being written.
                return self._settle_locked(target, crashes)
            self._flushed_len = upto
        return _WROTE

    def _write_end_locked(self) -> int:
        """Where the next write ends: every queued target (mutex held)."""
        return min(self._force_wanted, self._open_start + len(self._open))

    def _settle_locked(self, target: int, crashes: int) -> tuple[str, ...] | None:
        """A force's outcome without a write of its own, or None while
        it must wait or write (mutex held).  ``crashes`` is the crash
        count when it queued."""
        if crashes != len(self._kept):
            # The first crash since it queued kept its target or not.
            return _SAVED if target <= self._kept[crashes] else _LOST
        if target <= self._flushed_len:
            return _SAVED
        if self._halted and target > self._writing:
            return _LOST  # no write starts after a halt
        return None

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

    # -- crash halt --------------------------------------------------------

    def halt(self) -> None:
        """Refuse appends until :meth:`resume` (set by Database.crash so
        straggler threads cannot write stale records post-crash).  No
        write starts after it: a force queued for the device that no
        write in progress covers gives up within
        :data:`_QUEUE_RECHECK_SECONDS`, lost."""
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
            self._force_wanted = 0
            # Forces queued or writing now are decided by it when they look.
            self._kept.append(keep)
        # Wake follow-mode iterators so they notice the halt promptly.
        with self._flush_cond:
            self._flush_cond.notify_all()
        self._stats.incr("log.crashes")
