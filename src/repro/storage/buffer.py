"""Buffer pool: steal / no-force page caching with WAL enforcement.

ARIES assumes the *steal* policy (dirty pages of uncommitted
transactions may be written to disk — which is why undo exists) and
*no-force* (commit does not flush data pages — which is why redo
exists).  This pool implements both, plus the write-ahead-log rule:
before a dirty page goes to disk, the log is forced up to that page's
``page_lsn``.

The pool also owns the **dirty page table** (page id → recLSN), which
fuzzy checkpoints copy into the log and the analysis pass rebuilds.
``recLSN`` is the LSN from which redo might be needed for that page:
the end-of-log LSN at the moment the page first became dirty.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable

from repro.common.errors import (
    BufferPoolFullError,
    PageNotFoundError,
    PermanentIOError,
)
from repro.common.stats import StatsRegistry
from repro.storage.disk import DiskManager
from repro.storage.faults import with_io_retries
from repro.storage.page import Page
from repro.wal.log import LogManager
from repro.wal.records import NULL_LSN, LogRecord


class _Frame:
    __slots__ = ("page", "dirty", "pins")

    def __init__(self, page: Page) -> None:
        self.page = page
        self.dirty = False
        #: One entry per outstanding fix.  ``fix`` appends under the pool
        #: mutex; ``unfix`` pops without it (``list.pop`` is atomic), so
        #: a buffer hit takes the mutex once per fix/unfix pair.
        self.pins: list[None] = [None]


class BufferPool:
    """Fixed-capacity page cache over the simulated disk.

    Disk I/O issued by :meth:`fix` and :meth:`flush_page` absorbs
    transient I/O faults with bounded retry-and-backoff; a permanent
    fault (or a transient one that outlives the retry budget) is
    escalated through ``on_fatal_io`` — the database wires that to a
    clean ``Database.crash()`` — and then re-raised.

    Hits are counted in a field under the pool mutex that ``fix``
    already holds, and reported as ``buffer.hits`` through a stats
    source.
    """

    def __init__(
        self,
        disk: DiskManager,
        log: LogManager,
        capacity: int,
        stats: StatsRegistry | None = None,
        io_retry_limit: int = 4,
        io_retry_backoff_seconds: float = 0.0,
    ) -> None:
        self._disk = disk
        self._log = log
        self._capacity = capacity
        self._stats = stats or StatsRegistry(enabled=False)
        self._io_retry_limit = io_retry_limit
        self._io_retry_backoff = io_retry_backoff_seconds
        self._mutex = threading.RLock()
        self._frames: OrderedDict[int, _Frame] = OrderedDict()
        self._dirty_page_table: dict[int, int] = {}
        #: Page id → record being logged against it (:meth:`note_logging`).
        self._logging: dict[int, LogRecord] = {}
        self._hits = 0
        self._stats.add_source(self._hit_counts)
        #: Called with the PermanentIOError before it is re-raised.
        self.on_fatal_io: Callable[[PermanentIOError], None] | None = None
        #: Instant restart: consulted with the page id at the top of
        #: every :meth:`fix`, *before* the pool mutex is taken, so a
        #: recovery governor can lazily recover the page first (the
        #: recovery work itself fixes pages through this pool).
        self.recovery_hook: Callable[[int], None] | None = None

    def _hit_counts(self) -> dict[str, int]:
        return {"buffer.hits": self._hits} if self._hits else {}

    # -- fault-hardened I/O ---------------------------------------------------

    def _disk_io(self, op: Callable[[], object]) -> object:
        try:
            return with_io_retries(
                op, self._io_retry_limit, self._io_retry_backoff, self._stats
            )
        except PermanentIOError as exc:
            self._stats.incr("buffer.fatal_io_errors")
            handler = self.on_fatal_io
            if handler is not None:
                handler(exc)
            raise

    # -- fixing ---------------------------------------------------------------

    def fix(self, page_id: int) -> Page:
        """Pin the page in the pool and return the live object.

        Reads from disk on a miss.  The caller must latch the page
        before inspecting or modifying it, and must :meth:`unfix` it.
        """
        hook = self.recovery_hook
        if hook is not None:
            hook(page_id)
        with self._mutex:
            frame = self._frames.get(page_id)
            if frame is not None:
                self._frames.move_to_end(page_id)
                frame.pins.append(None)
                self._hits += 1
                return frame.page
            self._evict_if_needed()
            raw = self._disk_io(lambda: self._disk.read(page_id))
            page = Page.from_bytes(raw)
            self._frames[page_id] = _Frame(page)
            self._stats.incr("buffer.misses")
            self._stats.incr("buffer.pages_read")
            return page

    def fix_new(self, page: Page) -> Page:
        """Install a freshly created page (not yet on disk), pinned."""
        with self._mutex:
            if page.page_id in self._frames:
                raise BufferPoolFullError(
                    f"page {page.page_id} already present in the pool"
                )
            self._evict_if_needed()
            self._frames[page.page_id] = _Frame(page)
            return page

    def unfix(self, page_id: int) -> None:
        # No mutex: a pinned frame cannot be evicted, a dict lookup is
        # atomic, and so is the pop that unpins it.
        frame = self._frames.get(page_id)
        if frame is not None:
            try:
                frame.pins.pop()
                return
            except IndexError:
                pass
        raise PageNotFoundError(f"unfix of unpinned page {page_id}")

    def is_cached(self, page_id: int) -> bool:
        with self._mutex:
            return page_id in self._frames

    # -- dirtying ---------------------------------------------------------------

    def mark_dirty(self, page_id: int, rec_lsn: int) -> None:
        """Record that the (fixed) page was modified by the log record
        at ``rec_lsn``.

        Installs a dirty-page-table entry with recLSN = ``rec_lsn`` if
        the page was clean; an already-dirty page keeps its original
        (smaller) recLSN, per ARIES.
        """
        with self._mutex:
            frame = self._frames[page_id]
            frame.dirty = True
            if page_id not in self._dirty_page_table:
                self._dirty_page_table[page_id] = rec_lsn
            self._logging.pop(page_id, None)

    def note_logging(self, page_id: int, record: LogRecord) -> None:
        """Hold ``record``, about to be logged against the (fixed) page,
        until :meth:`mark_dirty`: in between, its LSN counts as the
        page's recLSN (if it was clean) and chain tail, so a checkpoint
        taken before the PageLSN is stamped still sees the change."""
        with self._mutex:
            self._logging[page_id] = record

    def set_rec_lsn(self, page_id: int, rec_lsn: int) -> None:
        """Force a specific recLSN (used by redo when reloading DPT info)."""
        with self._mutex:
            self._dirty_page_table[page_id] = rec_lsn
            frame = self._frames.get(page_id)
            if frame is not None:
                frame.dirty = True

    def forget_clean_entry(self, page_id: int) -> None:
        """Drop the dirty-page-table entry of a page that is not in fact
        dirty.  Instant restart pre-seeds recLSNs for every page redo
        might touch (so fuzzy checkpoints taken while recovering stay
        safe); a page that turns out to be current on disk sheds its
        pre-seeded entry here."""
        with self._mutex:
            frame = self._frames.get(page_id)
            if frame is None or not frame.dirty:
                self._dirty_page_table.pop(page_id, None)

    def dirty_page_table(self) -> dict[int, int]:
        return {page_id: rec_lsn for page_id, rec_lsn, _ in self.dirty_page_heads()}

    def dirty_page_heads(self) -> list[tuple[int, int, int]]:
        """``(page_id, rec_lsn, last_lsn)`` of every dirty page, counting
        one whose record is logged but not yet stamped (:meth:`note_logging`);
        ``last_lsn`` is NULL_LSN for an entry a restart pre-seeded for a
        page it has not recovered yet (no frame)."""
        with self._mutex:
            logged = {p: r.lsn for p, r in self._logging.items() if r.lsn != NULL_LSN}
            heads = []
            for page_id, rec_lsn in {**logged, **self._dirty_page_table}.items():
                frame = self._frames.get(page_id)
                page_lsn = NULL_LSN if frame is None else frame.page.page_lsn
                heads.append((page_id, rec_lsn, max(page_lsn, logged.get(page_id, 0))))
            return heads

    # -- flushing ----------------------------------------------------------------

    def flush_page(self, page_id: int) -> None:
        """Write one page to disk, honouring the WAL rule."""
        with self._mutex:
            frame = self._frames.get(page_id)
            if frame is None:
                return
            if not frame.dirty:
                return
            page = frame.page
            self._log.force(page.page_lsn)
            raw = page.to_bytes()
            self._disk_io(lambda: self._disk.write(page.page_id, raw))
            frame.dirty = False
            self._dirty_page_table.pop(page_id, None)
            self._stats.incr("buffer.pages_written")

    def flush_all(self) -> None:
        with self._mutex:
            for page_id in list(self._frames):
                self.flush_page(page_id)

    def discard(self, page_id: int) -> None:
        """Drop a page from the pool without flushing (page deallocated)."""
        with self._mutex:
            self._frames.pop(page_id, None)
            self._dirty_page_table.pop(page_id, None)

    # -- eviction -----------------------------------------------------------------

    def _evict_if_needed(self) -> None:
        while len(self._frames) >= self._capacity:
            victim_id = None
            for page_id, frame in self._frames.items():  # LRU order
                if not frame.pins:
                    victim_id = page_id
                    break
            if victim_id is None:
                raise BufferPoolFullError(
                    f"all {self._capacity} frames are pinned"
                )
            self.flush_page(victim_id)
            del self._frames[victim_id]
            self._stats.incr("buffer.evictions")

    # -- crash -------------------------------------------------------------------

    def crash(self) -> None:
        """Lose all volatile state (frames and dirty page table)."""
        self.recovery_hook = None
        with self._mutex:
            self._frames.clear()
            self._dirty_page_table.clear()
            self._logging.clear()
