"""Version GC: bounded by the oldest snapshot, race-safe, and
recovery-safe (purges replay as redo-only records)."""

from __future__ import annotations

import threading

import pytest

from repro.common.errors import ConfigError

from tests.conftest import build_db, populate


def deleting(db, key):
    txn = db.begin()
    db.delete_by_key(txn, "t", "by_id", key)
    db.commit(txn)


def ghost_count(db, table="t"):
    heap = db.tables[table].heap
    ghosts = 0
    for page_id in list(heap.page_ids):
        page = heap._fix_heap_page(page_id, db.incarnation)
        try:
            ghosts += sum(
                1 for entry in page.slots if entry is not None and not entry[1]
            )
        finally:
            db.buffer.unfix(page_id)
    return ghosts


@pytest.fixture
def gc_db():
    db = build_db()
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    populate(db, range(10))
    yield db
    db.close()


class TestGc:
    def test_gc_sweeps_unreferenced_versions(self, gc_db):
        db = gc_db
        for key in (1, 2, 3):
            deleting(db, key)
        tree = db.tables["t"].indexes["by_id"]
        db.mvcc_ensure_dead_keys(db.tables["t"])
        assert db.versions.entry_count(tree.index_id) == 3
        report = db.mvcc_gc()
        assert report.dead_keys_swept == 3
        assert report.slots_purged == 3
        assert db.versions.entry_count(tree.index_id) == 0
        # The purged slots are physically gone from the heap: no
        # ghosts survive, only the 7 live rows.
        assert ghost_count(db) == 0
        assert len(db.tables["t"].heap.scan_rids()) == 7

    def test_gc_keeps_versions_oldest_snapshot_needs(self, gc_db):
        db = gc_db
        snap = db.begin_snapshot()
        deleting(db, 1)
        report = db.mvcc_gc()
        # The deleter committed AFTER the snapshot's timestamp: the
        # ghost is still this snapshot's visible version.
        assert report.slots_purged == 0
        assert report.dead_keys_kept == 1
        assert db.fetch(snap, "t", "by_id", 1)["id"] == 1
        db.end_snapshot(snap)
        report = db.mvcc_gc()
        assert report.slots_purged == 1

    def test_gc_respects_inflight_deleter(self, gc_db):
        db = gc_db
        txn = db.begin()
        db.delete_by_key(txn, "t", "by_id", 4)
        report = db.mvcc_gc()
        # Uncommitted deleter: the ghost may yet be unghosted (abort).
        assert report.slots_purged == 0
        db.rollback(txn)
        with db.snapshot() as snap:
            assert db.fetch(snap, "t", "by_id", 4) is not None

    def test_gc_drops_the_entry_of_an_aborted_deleter(self, gc_db):
        """A dead-key entry noted while its deleter was in flight names a
        live row once that deleter rolls back: GC sweeps the entry (its
        deleter is resolved) and purges no slot."""
        db = gc_db
        tree = db.tables["t"].indexes["by_id"]
        txn = db.begin()
        db.delete_by_key(txn, "t", "by_id", 4)
        db.mvcc_ensure_dead_keys(db.tables["t"])
        assert db.versions.entry_count(tree.index_id) == 1
        db.rollback(txn)
        report = db.mvcc_gc()
        assert (report.dead_keys_swept, report.slots_purged) == (1, 0)
        assert db.versions.entry_count(tree.index_id) == 0
        with db.snapshot() as snap:
            assert db.fetch(snap, "t", "by_id", 4) is not None

    def test_gc_vs_snapshot_begin_race(self, gc_db):
        """A snapshot begun while GC runs never loses a version it can
        see: whatever GC decides, every read agrees with the snapshot's
        timestamp."""
        db = gc_db
        for key in range(5):
            deleting(db, key)
        errors = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                with db.snapshot() as snap:
                    for key in range(10):
                        row = db.fetch(snap, "t", "by_id", key)
                        present = row is not None
                        # keys 0-4 deleted before any of these
                        # snapshots, 5-9 never deleted.
                        if present != (key >= 5):
                            errors.append((key, present))

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for _ in range(10):
                db.mvcc_gc()
        finally:
            stop.set()
            thread.join()
        assert errors == []

    def test_gc_requires_mvcc(self):
        db = build_db(mvcc_enabled=False)
        with pytest.raises(ConfigError):
            db.mvcc_gc()
        db.close()


class TestGcRecovery:
    def test_purge_survives_crash_restart(self, gc_db):
        db = gc_db
        for key in (1, 2):
            deleting(db, key)
        report = db.mvcc_gc()
        assert report.slots_purged == 2
        db.crash()
        db.restart()
        assert db.verify_indexes() == {}
        txn = db.begin()
        rows = [r["id"] for _, r in db.scan(txn, "t", "by_id")]
        db.commit(txn)
        assert rows == [0, 3, 4, 5, 6, 7, 8, 9]
        # Redo replayed the purge records too: no ghosts reappear.
        assert ghost_count(db) == 0

    def test_gc_after_restart(self, gc_db):
        """Ghost slots from before a crash are rebuilt into the store
        lazily and remain GC-able after recovery."""
        db = gc_db
        for key in (1, 2):
            deleting(db, key)
        db.crash()
        db.restart()
        report = db.mvcc_gc()
        assert report.slots_purged == 2
        with db.snapshot() as snap:
            assert db.fetch(snap, "t", "by_id", 1) is None
            assert db.fetch(snap, "t", "by_id", 3) is not None
