"""Buffer pool: fixing, eviction, WAL rule, dirty page table, retirement."""

import pytest

from repro.common.errors import (
    BufferPoolFullError,
    DatabaseClosedError,
    PageNotFoundError,
)
from repro.data.heap import HeapPage
from repro.incarnation import Retired
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.wal.log import LogManager
from repro.wal.records import update_record


def make_pool(capacity=8):
    disk = DiskManager(page_size=4096)
    log = LogManager()
    return BufferPool(disk, log, capacity), disk, log


def new_heap_page(pool, disk, page_id=None):
    page_id = page_id or disk.allocate_page_id()
    page = HeapPage(page_id, table_id=1)
    pool.fix_new(page)
    return page


class TestFixUnfix:
    def test_fix_new_then_refetch(self):
        pool, disk, _ = make_pool()
        page = new_heap_page(pool, disk)
        pool.unfix(page.page_id)
        again = pool.fix(page.page_id)
        assert again is page
        pool.unfix(page.page_id)

    def test_fix_reads_from_disk_on_miss(self):
        pool, disk, log = make_pool()
        page = new_heap_page(pool, disk)
        page.append_record(b"data")
        pool.mark_dirty(page.page_id, 1)
        pool.flush_page(page.page_id)
        pool.unfix(page.page_id)
        pool.discard(page.page_id)  # drop the frame
        loaded = pool.fix(page.page_id)
        assert isinstance(loaded, HeapPage)
        assert loaded.record(0) == b"data"
        pool.unfix(page.page_id)

    def test_unfix_unpinned_rejected(self):
        pool, disk, _ = make_pool()
        page = new_heap_page(pool, disk)
        pool.unfix(page.page_id)
        with pytest.raises(PageNotFoundError):
            pool.unfix(page.page_id)

    def test_fix_missing_page(self):
        pool, _, _ = make_pool()
        with pytest.raises(PageNotFoundError):
            pool.fix(42)


class TestEviction:
    def test_lru_eviction_writes_dirty_page(self):
        pool, disk, _ = make_pool(capacity=4)
        first = new_heap_page(pool, disk)
        first.append_record(b"persisted")
        pool.mark_dirty(first.page_id, 1)
        pool.unfix(first.page_id)
        for _ in range(4):  # push it out
            page = new_heap_page(pool, disk)
            pool.unfix(page.page_id)
        assert not pool.is_cached(first.page_id)
        assert disk.contains(first.page_id)
        reloaded = pool.fix(first.page_id)
        assert reloaded.record(0) == b"persisted"
        pool.unfix(first.page_id)

    def test_all_pinned_raises(self):
        pool, disk, _ = make_pool(capacity=4)
        for _ in range(4):
            new_heap_page(pool, disk)  # left pinned
        with pytest.raises(BufferPoolFullError):
            new_heap_page(pool, disk)


class TestWALRule:
    def test_flush_forces_log_up_to_page_lsn(self):
        pool, disk, log = make_pool()
        record = update_record(1, "heap", "insert", 1, {"n": 1})
        lsn = log.append(record)
        page = new_heap_page(pool, disk, page_id=1)
        page.page_lsn = lsn
        pool.mark_dirty(1, lsn)
        assert log.flushed_lsn == 0
        pool.flush_page(1)
        assert log.flushed_lsn >= lsn
        pool.unfix(1)

    def test_clean_page_flush_is_noop(self):
        pool, disk, log = make_pool()
        page = new_heap_page(pool, disk)
        pool.flush_page(page.page_id)  # never dirtied
        assert not disk.contains(page.page_id)
        pool.unfix(page.page_id)


class TestDirtyPageTable:
    def test_first_dirty_sets_rec_lsn(self):
        pool, disk, _ = make_pool()
        page = new_heap_page(pool, disk)
        pool.mark_dirty(page.page_id, 100)
        pool.mark_dirty(page.page_id, 200)  # keeps the earlier recLSN
        assert pool.dirty_page_table() == {page.page_id: 100}
        pool.unfix(page.page_id)

    def test_flush_clears_entry(self):
        pool, disk, _ = make_pool()
        page = new_heap_page(pool, disk)
        pool.mark_dirty(page.page_id, 5)
        pool.flush_page(page.page_id)
        assert pool.dirty_page_table() == {}
        pool.unfix(page.page_id)

    def test_flush_all(self):
        pool, disk, _ = make_pool()
        pages = [new_heap_page(pool, disk) for _ in range(3)]
        for page in pages:
            pool.mark_dirty(page.page_id, 1)
        pool.flush_all()
        assert pool.dirty_page_table() == {}
        assert all(disk.contains(p.page_id) for p in pages)


class TestCrash:
    def test_crash_loses_unflushed_changes(self):
        """A crash retires the pool: the unflushed page never reaches
        the disk, and a pin taken before it cannot be used after."""
        pool, disk, _ = make_pool()
        page = new_heap_page(pool, disk)
        page.append_record(b"volatile")
        pool.mark_dirty(page.page_id, 1)
        pool.retire(Retired("crashed"))
        assert not disk.contains(page.page_id)
        with pytest.raises(DatabaseClosedError):
            pool.unfix(page.page_id)
        with pytest.raises(DatabaseClosedError):
            pool.fix(page.page_id)

    def test_discard_drops_without_flush(self):
        pool, disk, _ = make_pool()
        page = new_heap_page(pool, disk)
        pool.mark_dirty(page.page_id, 1)
        pool.discard(page.page_id)
        assert not pool.is_cached(page.page_id)
        assert pool.dirty_page_table() == {}


class TestLockFreeUnfix:
    def test_concurrent_fix_unfix_loses_no_pin_and_no_hit(self):
        """``unfix`` pops a pin without the pool mutex: hammer a few
        frames from more threads than cores with a tiny switch interval
        and check that every pin came off and every hit was counted."""
        import sys
        import threading

        from repro.common.stats import StatsRegistry

        stats = StatsRegistry()
        disk = DiskManager(page_size=4096)
        pool = BufferPool(disk, LogManager(), 8, stats)
        pages = [new_heap_page(pool, disk) for _ in range(3)]
        for page in pages:
            pool.unfix(page.page_id)
        rounds, workers = 2000, 6

        def hammer(seed: int) -> None:
            for i in range(rounds):
                page_id = pages[(seed + i) % len(pages)].page_id
                pool.fix(page_id)
                pool.unfix(page_id)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(n,)) for n in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert stats.get("buffer.hits") == rounds * workers
        for page in pages:
            with pytest.raises(PageNotFoundError):
                pool.unfix(page.page_id)  # every pin is off: one more unfix fails
