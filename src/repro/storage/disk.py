"""Simulated stable storage.

A dict of page-id → framed page image.  Each stored image carries its
integrity data *inside* the image — a ``[magic][crc32(body)][len]``
header ahead of the body, like the per-sector OOB/ECC area of a real
device — so a **torn write** (only some sectors of an in-flight write
persisted at crash time) is detectable when the page is next read:
header and body no longer agree and the read raises
:class:`~repro.common.errors.CorruptPageError`.  (The seed version kept
a ``(bytes, crc)`` tuple written atomically together, which could never
detect a tear.)

Fault injection: an optional :class:`~repro.storage.faults.FaultInjector`
is consulted on every read/write for transient/permanent I/O errors and
marks writes as torn-pending; :meth:`crash` applies pending tears —
modelling "the write was in the device cache when power died".

The disk also provides the two hooks the media-recovery experiment
(E12) needs: :meth:`image_copy` takes a fuzzy dump of all pages, and
:meth:`corrupt` damages one page so a later read raises
:class:`~repro.common.errors.CorruptPageError`.
"""

from __future__ import annotations

import struct
import threading
import zlib

from repro.common.errors import CorruptPageError, PageNotFoundError, StorageError
from repro.common.stats import StatsRegistry
from repro.storage.faults import FaultInjector, torn_image

#: Integrity header stored inside every page image: magic, crc32(body), length.
PAGE_HEADER = struct.Struct(">4sII")
PAGE_MAGIC = b"PGv1"

#: Granularity at which torn writes mix old and new image content.
SECTOR_SIZE = 512


class DiskManager:
    """Byte-level page store with allocation and integrity checking."""

    #: Page id 0 is reserved (NULL); real pages start at 1.
    FIRST_PAGE_ID = 1

    def __init__(
        self,
        page_size: int,
        stats: StatsRegistry | None = None,
        fault_injector: FaultInjector | None = None,
    ) -> None:
        self.page_size = page_size
        self._stats = stats or StatsRegistry()
        self._faults = fault_injector
        self._mutex = threading.Lock()
        #: Fixed-size framed images (header + body, zero-padded).
        self._pages: dict[int, bytes] = {}
        #: page id → the image that would be on disk if a crash landed
        #: before the next complete write of that page (torn write).
        self._pending_tears: dict[int, bytes] = {}
        self._next_page_id = self.FIRST_PAGE_ID
        #: On-disk frame: header is out-of-band, body budget is page_size.
        self._image_size = PAGE_HEADER.size + page_size

    # -- allocation ---------------------------------------------------------

    def allocate_page_id(self) -> int:
        """Hand out a fresh page id (nothing is written yet)."""
        with self._mutex:
            page_id = self._next_page_id
            self._next_page_id += 1
        return page_id

    def ensure_allocator_above(self, page_id: int) -> None:
        """Bump the allocator past ``page_id``.

        Called during redo when a page-format record recreates a page
        that was allocated before the crash but never flushed, so the
        allocator never re-issues an id that appears in the log.
        """
        with self._mutex:
            if page_id >= self._next_page_id:
                self._next_page_id = page_id + 1

    # -- framing -------------------------------------------------------------

    def _frame(self, raw: bytes) -> bytes:
        image = PAGE_HEADER.pack(PAGE_MAGIC, zlib.crc32(raw), len(raw)) + raw
        return image.ljust(self._image_size, b"\x00")

    def _unframe(self, page_id: int, image: bytes) -> bytes:
        try:
            magic, crc, length = PAGE_HEADER.unpack_from(image, 0)
        except struct.error:
            raise CorruptPageError(f"page {page_id} image is unreadable")
        if magic != PAGE_MAGIC or length > self.page_size:
            raise CorruptPageError(f"page {page_id} has a damaged header")
        body = image[PAGE_HEADER.size : PAGE_HEADER.size + length]
        if len(body) != length or zlib.crc32(body) != crc:
            raise CorruptPageError(f"page {page_id} failed its integrity check")
        return body

    # -- I/O -----------------------------------------------------------------

    def write(self, page_id: int, raw: bytes) -> None:
        """Write one page image.

        The write is atomic from the caller's perspective, but if the
        fault injector marks it torn, a crash before the next complete
        write of this page persists only a sector prefix/suffix.
        """
        if len(raw) > self.page_size:
            raise StorageError(
                f"page {page_id} image is {len(raw)} bytes; page size is {self.page_size}"
            )
        if self._faults is not None:
            self._faults.before_write(page_id)
        image = self._frame(raw)
        with self._mutex:
            tear = None
            if self._faults is not None:
                tear = self._faults.plan_tear(page_id, self._image_size // SECTOR_SIZE)
            if tear is not None:
                old = self._pages.get(page_id, bytes(self._image_size))
                torn = torn_image(image, old, SECTOR_SIZE, tear)
                # Only a *detectable* mix counts as a tear.  A mix that
                # still unframes cleanly reads back as one of the two
                # full images (e.g. the sector split fell in the zero
                # padding past the shorter body), which would be an
                # undetectable lost write — treat those as completed
                # atomic writes instead.
                try:
                    self._unframe(page_id, torn)
                except CorruptPageError:
                    self._pending_tears[page_id] = torn
                else:
                    self._pending_tears.pop(page_id, None)
            else:
                self._pending_tears.pop(page_id, None)
            self._pages[page_id] = image
            if page_id >= self._next_page_id:
                self._next_page_id = page_id + 1
        self._stats.incr("disk.writes")

    def read(self, page_id: int) -> bytes:
        if self._faults is not None:
            self._faults.before_read(page_id)
        with self._mutex:
            image = self._pages.get(page_id)
        if image is None:
            raise PageNotFoundError(f"page {page_id} does not exist on disk")
        body = self._unframe(page_id, image)
        self._stats.incr("disk.reads")
        return body

    def contains(self, page_id: int) -> bool:
        with self._mutex:
            return page_id in self._pages

    def deallocate(self, page_id: int) -> None:
        """Drop a page image (used when a deallocation is flushed)."""
        with self._mutex:
            self._pages.pop(page_id, None)
            self._pending_tears.pop(page_id, None)

    def page_ids(self) -> list[int]:
        with self._mutex:
            return sorted(self._pages)

    # -- crash simulation -----------------------------------------------------

    def crash(self) -> None:
        """Apply pending torn writes: the in-flight image mixes land on
        the platter, to be discovered (via CRC) after restart."""
        with self._mutex:
            torn = len(self._pending_tears)
            for page_id, image in self._pending_tears.items():
                self._pages[page_id] = image
            self._pending_tears.clear()
        if torn:
            self._stats.incr("disk.torn_writes_applied", torn)

    # -- media recovery hooks ---------------------------------------------------

    def image_copy(self) -> dict[int, bytes]:
        """Fuzzy dump: a snapshot of every *readable* page currently on
        disk (damaged pages are skipped — they are what media recovery
        exists to rebuild)."""
        with self._mutex:
            images = dict(self._pages)
        dump: dict[int, bytes] = {}
        for page_id, image in images.items():
            try:
                dump[page_id] = self._unframe(page_id, image)
            except CorruptPageError:
                continue
        return dump

    def restore_page(self, page_id: int, raw: bytes) -> None:
        """Replace a (damaged) page with an image from a dump."""
        self.write(page_id, raw)

    def corrupt(self, page_id: int) -> None:
        """Flip body bytes in a page so the next read fails its CRC check."""
        with self._mutex:
            image = self._pages.get(page_id)
            if image is None:
                raise PageNotFoundError(f"page {page_id} does not exist on disk")
            start = PAGE_HEADER.size
            damaged = (
                image[:start]
                + bytes(b ^ 0xFF for b in image[start : start + 16])
                + image[start + 16 :]
            )
            self._pages[page_id] = damaged
