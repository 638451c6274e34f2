"""Heap file: inserts, ghosting deletes, page formatting, locking."""

import pytest

from repro.common.errors import KeyNotFoundError, PageOverflowError
from repro.locks.modes import LockMode, record_lock_name
from tests.conftest import build_db


def heap_db():
    db = build_db()
    db.create_table("t")
    return db


class TestInsertFetch:
    def test_roundtrip(self):
        db = heap_db()
        txn = db.begin()
        rid = db.tables["t"].heap.insert(txn, b"hello")
        assert db.tables["t"].heap.fetch(txn, rid) == b"hello"
        db.commit(txn)

    def test_insert_takes_commit_x_record_lock(self):
        db = heap_db()
        txn = db.begin()
        rid = db.tables["t"].heap.insert(txn, b"x")
        name = record_lock_name(db.tables["t"].table_id, rid)
        assert db.locks.held_mode(txn.txn_id, name) is LockMode.X
        db.commit(txn)

    def test_new_pages_formatted_when_full(self):
        db = heap_db()
        txn = db.begin()
        big = b"r" * 1000
        rids = [db.tables["t"].heap.insert(txn, big) for _ in range(12)]
        db.commit(txn)
        assert len({r.page_id for r in rids}) > 1
        assert len(db.tables["t"].heap.page_ids) > 1

    def test_record_too_large(self):
        db = heap_db()
        txn = db.begin()
        with pytest.raises(PageOverflowError):
            db.tables["t"].heap.insert(txn, b"x" * 5000)
        db.rollback(txn)


class TestGhostDeletes:
    def test_delete_hides_record(self):
        db = heap_db()
        txn = db.begin()
        rid = db.tables["t"].heap.insert(txn, b"gone")
        db.commit(txn)
        txn = db.begin()
        db.tables["t"].heap.delete(txn, rid)
        with pytest.raises(KeyNotFoundError):
            db.tables["t"].heap.fetch(txn, rid, lock=False)
        db.commit(txn)

    def test_slot_not_reused_after_delete(self):
        db = heap_db()
        txn = db.begin()
        rid = db.tables["t"].heap.insert(txn, b"a")
        db.tables["t"].heap.delete(txn, rid)
        rid2 = db.tables["t"].heap.insert(txn, b"b")
        db.commit(txn)
        assert rid2 != rid

    def test_rollback_unghosts(self):
        db = heap_db()
        txn = db.begin()
        rid = db.tables["t"].heap.insert(txn, b"kept")
        db.commit(txn)
        txn = db.begin()
        db.tables["t"].heap.delete(txn, rid)
        db.rollback(txn)
        check = db.begin()
        assert db.tables["t"].heap.fetch(check, rid) == b"kept"
        db.commit(check)

    def test_rollback_removes_inserted_record(self):
        db = heap_db()
        txn = db.begin()
        rid = db.tables["t"].heap.insert(txn, b"temp")
        db.rollback(txn)
        check = db.begin()
        with pytest.raises(KeyNotFoundError):
            db.tables["t"].heap.fetch(check, rid, lock=False)
        db.commit(check)

    def test_scan_rids_skips_ghosts(self):
        db = heap_db()
        txn = db.begin()
        keep = db.tables["t"].heap.insert(txn, b"keep")
        drop = db.tables["t"].heap.insert(txn, b"drop")
        db.tables["t"].heap.delete(txn, drop)
        db.commit(txn)
        assert db.tables["t"].heap.scan_rids() == [keep]


class TestRecovery:
    def test_committed_insert_survives_crash(self):
        db = heap_db()
        txn = db.begin()
        rid = db.tables["t"].heap.insert(txn, b"durable")
        db.commit(txn)
        db.crash()
        db.restart()
        check = db.begin()
        assert db.tables["t"].heap.fetch(check, rid) == b"durable"
        db.commit(check)

    def test_uncommitted_insert_rolled_back_at_restart(self):
        db = heap_db()
        txn = db.begin()
        rid = db.tables["t"].heap.insert(txn, b"inflight")
        db.log.force()
        db.crash()
        db.restart()
        check = db.begin()
        with pytest.raises(KeyNotFoundError):
            db.tables["t"].heap.fetch(check, rid, lock=False)
        db.commit(check)

    def test_stolen_page_with_uncommitted_delete_recovers(self):
        db = heap_db()
        txn = db.begin()
        rid = db.tables["t"].heap.insert(txn, b"v")
        db.commit(txn)
        txn = db.begin()
        db.tables["t"].heap.delete(txn, rid)
        db.flush_all_pages()  # steal the dirty page
        db.crash()
        db.restart()
        check = db.begin()
        assert db.tables["t"].heap.fetch(check, rid) == b"v"
        db.commit(check)
