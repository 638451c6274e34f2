"""Buffer-pressure behaviour."""

from repro.common.errors import BufferPoolFullError
from tests.conftest import build_db


class TestBufferPressure:
    """A pool far smaller than the working set: traversals must pin at
    most a handful of pages, evictions must honour the WAL rule, and
    correctness must be unaffected."""

    def test_deep_tree_with_tiny_pool(self):
        db = build_db(page_size=768, buffer_pool_pages=8)
        db.create_table("t")
        db.create_index("t", "by_id", column="id", unique=True)
        txn = db.begin()
        for key in range(600):
            db.insert(txn, "t", {"id": key, "val": "x" * 8})
        db.commit(txn)
        assert db.stats.get("buffer.evictions") > 0
        txn = db.begin()
        assert sum(1 for _ in db.scan(txn, "t", "by_id")) == 600
        db.commit(txn)
        assert db.verify_indexes() == {}

    def test_crash_recovery_with_tiny_pool(self):
        db = build_db(page_size=768, buffer_pool_pages=8)
        db.create_table("t")
        db.create_index("t", "by_id", column="id", unique=True)
        txn = db.begin()
        for key in range(300):
            db.insert(txn, "t", {"id": key, "val": "x" * 8})
        db.commit(txn)
        loser = db.begin()
        for key in range(1_000, 1_050):
            db.insert(loser, "t", {"id": key, "val": "y" * 8})
        db.log.force()
        db.crash()
        db.restart()
        txn = db.begin()
        assert sum(1 for _ in db.scan(txn, "t", "by_id")) == 300
        db.commit(txn)
        assert db.verify_indexes() == {}

    def test_eviction_respects_wal_rule(self):
        """Evicting a dirty page forces the log first (steal policy):
        after heavy eviction traffic every on-disk page's LSN is
        covered by the durable log."""
        db = build_db(page_size=768, buffer_pool_pages=8)
        db.create_table("t")
        db.create_index("t", "by_id", column="id", unique=True)
        txn = db.begin()
        for key in range(300):
            db.insert(txn, "t", {"id": key, "val": "x" * 8})
        db.commit(txn)
        from repro.storage.page import Page

        for page_id in db.disk.page_ids():
            page = Page.from_bytes(db.disk.read(page_id))
            assert page.page_lsn <= db.log.flushed_lsn

    def test_pool_exhaustion_is_detected_not_corrupting(self):
        """Fewer frames than one traversal needs → a clean error, not
        corruption.  (4 frames is the configured minimum.)"""
        db = build_db(page_size=512, buffer_pool_pages=4)
        db.create_table("t")
        db.create_index("t", "by_id", column="id", unique=True)
        txn = db.begin()
        try:
            for key in range(400):
                db.insert(txn, "t", {"id": key, "val": "x" * 8})
            db.commit(txn)
        except BufferPoolFullError:
            return  # acceptable: detected, reported, nothing corrupted
        assert db.verify_indexes() == {}
