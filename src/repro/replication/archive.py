"""The WAL archive: a durable, segmented copy of truncated log prefixes.

``LogManager.truncate_prefix`` reclaims log space no *restart* pass can
need — but media recovery and point-in-time restore need the full
history back to each page's birth.  The archive closes that gap: it is
installed as the log's archiver hook, so every byte the log is about to
discard lands here first (the hook raising vetoes the truncation, so
log space is never silently lost).

Chunks are validated for contiguity (a gap would make PITR across it
impossible — :class:`ArchiveGapError`) and split into bounded segments
at record-frame boundaries, the shape a real system would write as
numbered archive files.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterator

from repro.common.errors import ArchiveGapError, LSNOutOfRangeError, WALError
from repro.common.stats import StatsRegistry
from repro.wal.records import LogRecord


@dataclass
class ArchiveSegment:
    """One archived stretch of the WAL stream (whole frames only)."""

    first_lsn: int
    data: bytes
    record_count: int

    @property
    def end_lsn(self) -> int:
        """One past the last byte position this segment covers."""
        return self.first_lsn + len(self.data)


class WalArchive:
    """Append-only archive of contiguous WAL chunks.

    Install with ``log.set_archiver(archive.append_chunk)`` (which
    :meth:`Database.attach_archive` does).  Thread-safe: truncation,
    PITR reads, and replication polls may overlap.
    """

    def __init__(
        self,
        segment_bytes: int = 64 * 1024,
        stats: StatsRegistry | None = None,
    ) -> None:
        self._segment_bytes = segment_bytes
        self._stats = stats or StatsRegistry()
        self._lock = threading.Lock()
        self._segments: list[ArchiveSegment] = []
        self._base_lsn: int | None = None  # first archived LSN
        self._end_lsn: int | None = None  # next LSN a chunk must start at

    # -- ingest (the archiver hook) ----------------------------------------

    def append_chunk(self, first_lsn: int, data: bytes) -> None:
        """Adopt the byte range ``[first_lsn, first_lsn + len(data))``.

        Chunks must join contiguously onto what is already archived and
        must consist of whole, valid frames; any violation raises —
        which, through the archiver hook, vetoes the truncation, so the
        bytes stay in the live log.
        """
        if not data:
            return
        # Validate framing and find split points before taking the lock.
        boundaries: list[tuple[int, int]] = []  # (offset, next_offset)
        offset = 0
        while offset < len(data):
            start = offset
            try:
                _, offset = LogRecord.from_bytes(data, offset)
            except WALError as exc:
                raise ArchiveGapError(
                    f"chunk at LSN {first_lsn} has an invalid frame at "
                    f"relative offset {start}: {exc}"
                ) from exc
            boundaries.append((start, offset))
        with self._lock:
            expected = self._end_lsn
            if expected is not None and first_lsn != expected:
                raise ArchiveGapError(
                    f"chunk starts at LSN {first_lsn}; archive ends at "
                    f"{expected} (non-contiguous archiving would lose "
                    "history)"
                )
            if self._base_lsn is None:
                self._base_lsn = first_lsn
            # Split into segments of ~segment_bytes at frame boundaries.
            seg_start = 0
            seg_records = 0
            for start, end in boundaries:
                seg_records += 1
                if end - seg_start >= self._segment_bytes or end == len(data):
                    self._segments.append(
                        ArchiveSegment(
                            first_lsn=first_lsn + seg_start,
                            data=data[seg_start:end],
                            record_count=seg_records,
                        )
                    )
                    seg_start = end
                    seg_records = 0
            self._end_lsn = first_lsn + len(data)
        self._stats.incr("archive.chunks", 1)
        self._stats.incr("archive.bytes", len(data))

    # -- introspection ------------------------------------------------------

    @property
    def base_lsn(self) -> int | None:
        """First archived LSN (``None`` while empty)."""
        with self._lock:
            return self._base_lsn

    @property
    def end_lsn(self) -> int | None:
        """One past the last archived byte position (``None`` while
        empty)."""
        with self._lock:
            return self._end_lsn

    @property
    def segment_count(self) -> int:
        with self._lock:
            return len(self._segments)

    def segments(self) -> list[ArchiveSegment]:
        with self._lock:
            return list(self._segments)

    # -- reading ------------------------------------------------------------

    def raw_slice(self, from_lsn: int, upto: int | None = None) -> bytes:
        """Archived stream bytes for ``[from_lsn, upto)``.  ``from_lsn``
        must be a frame boundary the archive covers."""
        with self._lock:
            if self._base_lsn is None:
                raise LSNOutOfRangeError("archive is empty")
            if upto is None:
                upto = self._end_lsn
            if from_lsn < self._base_lsn or upto > self._end_lsn:
                raise LSNOutOfRangeError(
                    f"[{from_lsn}, {upto}) outside archived range "
                    f"[{self._base_lsn}, {self._end_lsn})"
                )
            parts: list[bytes] = []
            for seg in self._segments:
                if seg.end_lsn <= from_lsn or seg.first_lsn >= upto:
                    continue
                lo = max(from_lsn - seg.first_lsn, 0)
                hi = min(upto - seg.first_lsn, len(seg.data))
                parts.append(seg.data[lo:hi])
            return b"".join(parts)

    def records(
        self, from_lsn: int | None = None, upto: int | None = None
    ) -> Iterator[LogRecord]:
        """Iterate archived records with ``from_lsn <= lsn < upto``."""
        for seg in self.segments():
            if upto is not None and seg.first_lsn >= upto:
                return
            offset = 0
            while offset < len(seg.data):
                lsn = seg.first_lsn + offset
                record, offset = LogRecord.from_bytes(seg.data, offset)
                record.lsn = lsn
                if upto is not None and lsn >= upto:
                    return
                if from_lsn is None or lsn >= from_lsn:
                    yield record
