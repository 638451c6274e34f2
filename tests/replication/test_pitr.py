"""Point-in-time restore, verified against a recorded history.

The acceptance shape: a workload runs while every commit's flush LSN is
recorded; restores to arbitrary recorded targets must reproduce exactly
the rows committed at or before each target — including across a log
truncation (archive-backed), with open transactions undone, and with
index structure intact.
"""

import pytest

from repro.common.config import DatabaseConfig
from repro.common.errors import RecoveryError
from repro.db import Database
from repro.recovery.media import take_image_copy
from repro.replication import catalog_snapshot, restore_to_lsn


def build_history(rounds=24, trim_at=10, deletes=True):
    """A primary with archive, image copy, and a recorded history:
    list of (target_lsn, expected-row-dict) checkpoints."""
    db = Database(DatabaseConfig())
    db.attach_archive()
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    copy = take_image_copy(db)
    expected: dict[int, str] = {}
    history = []
    for i in range(rounds):
        with db.transaction() as txn:
            db.insert(txn, "t", {"id": i, "v": f"v{i}"})
            expected[i] = f"v{i}"
            if deletes and i >= 6 and i % 3 == 0:
                victim = i - 5
                db.delete_by_key(txn, "t", "by_id", victim)
                expected.pop(victim, None)
        history.append((db.log.flushed_lsn, dict(expected)))
        if i == trim_at:
            db.flush_all_pages()
            db.checkpoint()
            assert db.trim_log() > 0
    return db, copy, history


def assert_state(restored, expected, universe):
    with restored.transaction() as txn:
        for i in universe:
            row = restored.fetch(txn, "t", "by_id", i)
            if i in expected:
                assert row is not None and row["v"] == expected[i], i
            else:
                assert row is None, (i, row)
    assert restored.verify_indexes() == {}


class TestRestoreTargets:
    def test_every_fourth_recorded_target_restores_exactly(self):
        db, copy, history = build_history()
        universe = range(24)
        for target, expected in history[::4] + [history[-1]]:
            restored = restore_to_lsn(db, copy, target)
            assert_state(restored, expected, universe)

    def test_restore_with_recorded_catalog(self):
        """The catalog can come from a snapshot recorded at backup time
        rather than the live source."""
        db, copy, history = build_history(rounds=8, trim_at=3, deletes=False)
        recorded = catalog_snapshot(db)
        target, expected = history[5]
        restored = restore_to_lsn(db, copy, target, catalog=recorded)
        assert_state(restored, expected, range(8))

    def test_open_transaction_is_undone_at_restore(self):
        db, copy, history = build_history(rounds=6, trim_at=2, deletes=False)
        loser = db.begin()
        db.insert(loser, "t", {"id": 500, "v": "uncommitted"})
        db.log.force()
        restored = restore_to_lsn(db, copy, db.log.flushed_lsn)
        with restored.transaction() as txn:
            assert restored.fetch(txn, "t", "by_id", 500) is None
            assert restored.fetch(txn, "t", "by_id", 5) is not None
        # the restored instance is read-write
        with restored.transaction() as txn:
            restored.insert(txn, "t", {"id": 500, "v": "fresh"})
        with restored.transaction() as txn:
            assert restored.fetch(txn, "t", "by_id", 500)["v"] == "fresh"

    def test_restore_at_exact_checkpoint_boundary(self):
        """A target LSN landing exactly on a checkpoint boundary: once
        at the flushed position right after CKPT_END (the whole
        checkpoint is inside the history) and once at the CKPT_BEGIN
        LSN itself (the clipped history ends with a *begun but
        unfinished* checkpoint, which the restore must not trust)."""
        db, copy, history = build_history(rounds=8, trim_at=3, deletes=False)
        expected = history[-1][1]
        db.flush_all_pages()
        db.checkpoint()
        after_ckpt = db.log.flushed_lsn
        restored = restore_to_lsn(db, copy, after_ckpt)
        assert_state(restored, expected, range(8))

        ckpt_begin = db.log.master_lsn
        assert ckpt_begin is not None and ckpt_begin <= after_ckpt
        restored = restore_to_lsn(db, copy, ckpt_begin)
        assert_state(restored, expected, range(8))

    def test_restored_instance_is_independent(self):
        db, copy, history = build_history(rounds=6, trim_at=2, deletes=False)
        target, expected = history[3]
        restored = restore_to_lsn(db, copy, target)
        with restored.transaction() as txn:
            restored.insert(txn, "t", {"id": 100, "v": "fork"})
        with db.transaction() as txn:
            assert db.fetch(txn, "t", "by_id", 100) is None  # source untouched


    def test_restore_across_a_source_restart(self):
        """A page clean at a source crash starts a new log chain after
        the restart.  The restore analyses from LSN 1, so that page's
        recLSN lies below the break, and every record between the image
        copy and the source restart must still be replayed."""
        db = Database(DatabaseConfig())
        db.attach_archive()
        db.create_table("t")
        db.create_index("t", "by_id", column="id", unique=True)
        copy = take_image_copy(db)
        for i in range(40):
            with db.transaction() as txn:
                db.insert(txn, "t", {"id": i, "v": f"v{i}"})
        db.flush_all_pages()
        db.checkpoint()
        db.crash()
        db.restart()
        with db.transaction() as txn:
            db.insert(txn, "t", {"id": 40, "v": "v40"})
        restored = restore_to_lsn(db, copy, db.log.flushed_lsn)
        assert restored.stats.snapshot()["recovery.chain_break_scans"] > 0
        assert_state(restored, {i: f"v{i}" for i in range(41)}, range(41))


class TestRestoreErrors:
    def test_target_before_copy_end_is_rejected(self):
        db = Database(DatabaseConfig())
        db.attach_archive()
        db.create_table("t")
        db.create_index("t", "by_id", column="id", unique=True)
        with db.transaction() as txn:
            db.insert(txn, "t", {"id": 1})
        early_target = db.log.flushed_lsn
        with db.transaction() as txn:
            db.insert(txn, "t", {"id": 2})
        db.flush_all_pages()
        copy = take_image_copy(db)  # copy taken AFTER both commits
        with pytest.raises(RecoveryError):
            restore_to_lsn(db, copy, early_target)

    def test_later_image_copy_shrinks_redo_work(self):
        """A fresher copy restores with strictly less redo — §5's point
        that the dump bounds the single redo pass."""
        db = Database(DatabaseConfig())
        db.attach_archive()
        db.create_table("t")
        db.create_index("t", "by_id", column="id", unique=True)
        early = take_image_copy(db)
        for i in range(20):
            with db.transaction() as txn:
                db.insert(txn, "t", {"id": i})
        db.flush_all_pages()
        late = take_image_copy(db)
        with db.transaction() as txn:
            db.insert(txn, "t", {"id": 19_000})
        target = db.log.flushed_lsn
        r_early = restore_to_lsn(db, early, target)
        r_late = restore_to_lsn(db, late, target)
        redone_early = r_early.stats.snapshot().get("recovery.records_redone", 0)
        redone_late = r_late.stats.snapshot().get("recovery.records_redone", 0)
        assert redone_late < redone_early
        for r in (r_early, r_late):
            with r.transaction() as txn:
                assert r.fetch(txn, "t", "by_id", 19) is not None
