"""Snapshot reads: visibility, the zero-lock contract, read-only
enforcement, and scan stability against concurrent writers."""

from __future__ import annotations

import threading

import pytest

from repro.common.config import DatabaseConfig
from repro.common.errors import (
    ConfigError,
    DatabaseClosedError,
    TransactionNotActiveError,
)
from repro.db import Database

from tests.conftest import build_db, populate


def lock_requests_during(db, fn):
    before = db.stats.snapshot()
    fn()
    delta = db.stats.diff(before)
    return sum(v for k, v in delta.items() if k.startswith("lock.requests"))


class TestVisibility:
    def test_snapshot_sees_prior_commits(self, table_db):
        populate(table_db, [1, 2, 3])
        with table_db.snapshot() as snap:
            assert table_db.fetch(snap, "t", "by_id", 2)["id"] == 2

    def test_snapshot_blind_to_later_commits(self, table_db):
        populate(table_db, [1])
        with table_db.snapshot() as snap:
            populate(table_db, [2])
            assert table_db.fetch(snap, "t", "by_id", 2) is None
        with table_db.snapshot() as snap:
            assert table_db.fetch(snap, "t", "by_id", 2) is not None

    def test_snapshot_sees_deleted_old_version(self, table_db):
        populate(table_db, [1, 2, 3])
        with table_db.snapshot() as snap:
            txn = table_db.begin()
            table_db.delete_by_key(txn, "t", "by_id", 2)
            table_db.commit(txn)
            # The ghost slot IS the old version; the dead-key store
            # routes the scan to it even though the tree key is gone.
            assert table_db.fetch(snap, "t", "by_id", 2)["id"] == 2
            rows = [r["id"] for _, r in table_db.scan(snap, "t", "by_id")]
            assert rows == [1, 2, 3]
        with table_db.snapshot() as snap:
            assert table_db.fetch(snap, "t", "by_id", 2) is None

    def test_uncommitted_writer_invisible(self, table_db):
        populate(table_db, [1])
        writer = table_db.begin()
        table_db.insert(writer, "t", {"id": 5, "val": "w"})
        table_db.delete_by_key(writer, "t", "by_id", 1)
        with table_db.snapshot() as snap:
            # Neither the uncommitted insert nor the uncommitted delete
            # is visible — and the read does not block on the writer's
            # exclusive locks.
            assert table_db.fetch(snap, "t", "by_id", 5) is None
            assert table_db.fetch(snap, "t", "by_id", 1) is not None
        table_db.rollback(writer)

    def test_aborted_writer_never_visible(self, table_db):
        populate(table_db, [1])
        writer = table_db.begin()
        table_db.insert(writer, "t", {"id": 9, "val": "w"})
        table_db.rollback(writer)
        with table_db.snapshot() as snap:
            assert table_db.fetch(snap, "t", "by_id", 9) is None

    def test_repeated_reads_stable(self, table_db):
        populate(table_db, [1])
        with table_db.snapshot() as snap:
            first = table_db.fetch(snap, "t", "by_id", 1)
            txn = table_db.begin()
            table_db.delete_by_key(txn, "t", "by_id", 1)
            table_db.commit(txn)
            second = table_db.fetch(snap, "t", "by_id", 1)
            assert first == second


class TestCrash:
    @pytest.mark.parametrize("key", [2, 5])
    def test_snapshot_read_after_a_crash_fails(self, table_db, key):
        """A crash empties the pool; a snapshot opened before it must
        not answer from the disk pages, which no restart has recovered
        yet, whether or not the key is there."""
        populate(table_db, [1, 2, 3])
        table_db.flush_all_pages()
        snap = table_db.begin_snapshot()
        table_db.crash()
        with pytest.raises(DatabaseClosedError):
            table_db.fetch(snap, "t", "by_id", key)


class TestZeroLocks:
    def test_fetch_takes_no_locks(self, populated_db):
        db = populated_db
        with db.snapshot() as snap:
            requests = lock_requests_during(
                db, lambda: db.fetch(snap, "t", "by_id", 100)
            )
            assert requests == 0
            assert db.locks.lock_count(snap.txn_id) == 0

    def test_scan_takes_no_locks(self, populated_db):
        db = populated_db
        with db.snapshot() as snap:
            requests = lock_requests_during(
                db,
                lambda: sum(
                    1 for _ in db.scan(snap, "t", "by_id", low=100, high=160)
                ),
            )
            assert requests == 0
            assert db.locks.lock_count(snap.txn_id) == 0

    def test_locking_fetch_does_take_locks(self, populated_db):
        # Sanity: the counter setup actually measures something.
        db = populated_db

        def locking_fetch():
            txn = db.begin()
            db.fetch(txn, "t", "by_id", 100)
            db.commit(txn)

        assert lock_requests_during(db, locking_fetch) > 0


class TestReadOnly:
    def test_snapshot_txn_rejects_writes(self, table_db):
        populate(table_db, [1])
        snap = table_db.begin_snapshot()
        try:
            with pytest.raises(TransactionNotActiveError):
                table_db.insert(snap, "t", {"id": 1, "val": "x"})
            with pytest.raises(TransactionNotActiveError):
                table_db.delete_by_key(snap, "t", "by_id", 1)
        finally:
            table_db.end_snapshot(snap)

    def test_end_snapshot_idempotent(self, table_db):
        snap = table_db.begin_snapshot()
        table_db.end_snapshot(snap)
        table_db.end_snapshot(snap)

    def test_commit_and_rollback_release_snapshot(self, table_db):
        snap = table_db.begin_snapshot()
        table_db.commit(snap)
        assert table_db.mvcc.active_count() == 0
        snap = table_db.begin_snapshot()
        table_db.rollback(snap)
        assert table_db.mvcc.active_count() == 0


class TestDisabled:
    def test_begin_snapshot_requires_mvcc(self):
        db = Database(DatabaseConfig(mvcc_enabled=False))
        with pytest.raises(ConfigError):
            db.begin_snapshot()
        db.close()

    def test_locking_reads_still_work_without_mvcc(self):
        db = build_db(mvcc_enabled=False)
        db.create_table("t")
        db.create_index("t", "by_id", column="id", unique=True)
        populate(db, [1, 2])
        txn = db.begin()
        assert db.fetch(txn, "t", "by_id", 1)["id"] == 1
        db.commit(txn)
        db.close()


class TestScanDuringSplit:
    def test_snapshot_scan_stable_while_writer_splits_leaf(self):
        """Regression: a snapshot scan must observe exactly the
        snapshot's committed keys — and hold zero lock-table entries —
        while a writer splits the leaves it is traversing."""
        db = build_db(page_size=1024)
        db.create_table("t")
        db.create_index("t", "by_id", column="id", unique=True)
        baseline = list(range(0, 400, 4))
        populate(db, baseline)

        started = threading.Event()
        stop = threading.Event()

        def writer():
            # Odd-offset keys force splits in every leaf the scan visits.
            key = 1
            started.set()
            while not stop.is_set() and key < 400:
                txn = db.begin()
                db.insert(txn, "t", {"id": key, "val": "split-bait"})
                db.commit(txn)
                key += 2

        snap = db.begin_snapshot()
        thread = threading.Thread(target=writer)
        thread.start()
        started.wait()
        try:
            before = db.stats.snapshot()
            seen = []
            for _, row in db.scan(snap, "t", "by_id"):
                seen.append(row["id"])
                assert db.locks.lock_count(snap.txn_id) == 0
            delta = db.stats.diff(before)
            scan_locks = sum(
                v for k, v in delta.items() if k.startswith("lock.requests")
            )
        finally:
            stop.set()
            thread.join()
            db.end_snapshot(snap)
        # Stable result set: exactly the pre-snapshot keys, in order,
        # no duplicates, none of the writer's keys.
        assert seen == baseline
        # The writer took locks; the scan itself cannot have. Verify
        # via a quiesced re-run of the same scan.
        with db.snapshot() as snap2:
            requests = lock_requests_during(
                db, lambda: sum(1 for _ in db.scan(snap2, "t", "by_id"))
            )
            assert requests == 0
        assert db.verify_indexes() == {}
        db.close()
