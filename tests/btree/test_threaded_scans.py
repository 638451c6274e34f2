"""Range-scan isolation under real concurrency.

Repeatable read means a transaction that scans a range twice sees the
same rows even while writers hammer the rest of the key space; cursor
stability sees committed data but does not freeze its range.
"""

import random
import threading

from repro.common.errors import (
    DeadlockError,
    KeyNotFoundError,
    LockTimeoutError,
    UniqueKeyViolationError,
)
from tests.conftest import build_db, lock_wait_queued, populate


def make_db(**overrides):
    db = build_db(page_size=1024, **overrides)
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    return db


def churn(db, stop, lo, hi, seed):
    """Background writer over [lo, hi)."""
    rng = random.Random(seed)
    while not stop.is_set():
        txn = db.begin()
        try:
            for _ in range(3):
                key = rng.randrange(lo, hi)
                db.savepoint(txn, "s")
                try:
                    if rng.random() < 0.5:
                        db.insert(txn, "t", {"id": key, "val": "w"})
                    else:
                        db.delete_by_key(txn, "t", "by_id", key)
                except (UniqueKeyViolationError, KeyNotFoundError):
                    db.rollback_to_savepoint(txn, "s")
            db.commit(txn)
        except (DeadlockError, LockTimeoutError):
            try:
                db.rollback(txn)
            except Exception:
                pass


class TestRepeatableReadScans:
    def test_scan_stable_against_outside_churn(self):
        """Writers touch keys OUTSIDE the scanned range: the RR scan
        repeats identically and the writers are not blocked."""
        db = make_db()
        populate(db, range(0, 2_000, 2))
        stop = threading.Event()
        writers = [
            threading.Thread(target=churn, args=(db, stop, 1_000, 2_000, s))
            for s in range(3)
        ]
        for w in writers:
            w.start()
        try:
            txn = db.begin()
            first = [r["id"] for _, r in db.scan(txn, "t", "by_id", low=0, high=300)]
            again = [r["id"] for _, r in db.scan(txn, "t", "by_id", low=0, high=300)]
            db.commit(txn)
            assert first == again
        finally:
            stop.set()
            for w in writers:
                w.join(timeout=30)
        assert db.verify_indexes() == {}

    def test_scan_blocks_writers_inside_range_until_commit(self):
        db = make_db(lock_timeout_seconds=5.0)
        populate(db, range(0, 100, 2))
        t1 = db.begin()
        list(db.scan(t1, "t", "by_id", low=0, high=98))
        inserted = {}

        def writer():
            t2 = db.begin()
            db.insert(t2, "t", {"id": 51, "val": "phantom"})
            inserted["t"] = True
            db.commit(t2)

        waits = db.stats.get("lock.waits")
        queued = lock_wait_queued(db)
        worker = threading.Thread(target=writer)
        worker.start()
        assert queued.wait(30)
        assert "t" not in inserted
        db.commit(t1)
        worker.join(timeout=30)
        assert inserted["t"]
        assert db.stats.get("lock.waits") - waits >= 1

    def test_cs_scan_does_not_freeze_range(self):
        """A cursor-stability scan leaves no range locks behind."""
        db = make_db()
        populate(db, range(0, 100, 2))
        t1 = db.begin()
        list(db.scan(t1, "t", "by_id", low=0, high=98, isolation="cs"))
        t2 = db.begin()
        db.insert(t2, "t", {"id": 51, "val": "fine"})  # no block
        db.commit(t2)
        db.commit(t1)

    def test_many_concurrent_rr_scans(self):
        db = make_db()
        populate(db, range(0, 500, 2))
        results = []
        lock = threading.Lock()

        def scanner(lo):
            txn = db.begin()
            rows = [r["id"] for _, r in db.scan(txn, "t", "by_id", low=lo, high=lo + 100)]
            db.commit(txn)
            with lock:
                results.append((lo, rows))

        threads = [threading.Thread(target=scanner, args=(lo,)) for lo in range(0, 400, 50)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert len(results) == 8
        for lo, rows in results:
            assert rows == [k for k in range(0, 500, 2) if lo <= k <= lo + 100]
