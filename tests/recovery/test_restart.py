"""Restart recovery: analysis / redo / undo over committed, in-flight,
and partially flushed state."""

import threading

import pytest

from repro.txn.transaction import TxnStatus
from repro.wal.records import RM_BTREE
from tests.conftest import build_db, populate


def make_db(**overrides):
    db = build_db(**overrides)
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    return db


def count_keys(db):
    txn = db.begin()
    n = sum(1 for _ in db.scan(txn, "t", "by_id"))
    db.commit(txn)
    return n


class TestRedo:
    def test_committed_unflushed_work_redone(self):
        db = make_db()
        populate(db, range(50))
        db.crash()
        report = db.restart()
        assert report.redo.records_redone > 0
        assert count_keys(db) == 50
        assert db.verify_indexes() == {}

    def test_flushed_work_not_redone(self):
        db = make_db()
        populate(db, range(50))
        db.flush_all_pages()
        db.crash()
        report = db.restart()
        assert report.redo.records_redone == 0
        assert count_keys(db) == 50

    def test_partially_flushed_pages_converge(self):
        db = make_db()
        populate(db, range(200))
        # Flush an arbitrary subset of pages (fuzzy state on disk).
        for page_id in list(db.buffer.dirty_page_table())[::2]:
            db.flush_page(page_id)
        db.crash()
        db.restart()
        assert count_keys(db) == 200
        assert db.verify_indexes() == {}

    def test_redo_is_idempotent_across_repeated_crashes(self):
        db = make_db()
        populate(db, range(100))
        for _ in range(3):
            db.crash()
            db.restart()
        assert count_keys(db) == 100
        assert db.verify_indexes() == {}


class TestUndo:
    def test_inflight_transaction_rolled_back(self):
        db = make_db()
        populate(db, range(20))
        txn = db.begin()
        db.insert(txn, "t", {"id": 100, "val": "inflight"})
        db.delete_by_key(txn, "t", "by_id", 4)
        db.log.force()
        db.crash()
        report = db.restart()
        assert report.undo.transactions_rolled_back == 1
        check = db.begin()
        assert db.fetch(check, "t", "by_id", 100) is None
        assert db.fetch(check, "t", "by_id", 4) is not None
        db.commit(check)

    def test_unforced_inflight_work_simply_vanishes(self):
        db = make_db()
        populate(db, range(20))
        txn = db.begin()
        db.insert(txn, "t", {"id": 100, "val": "volatile"})
        db.crash()  # nothing of txn reached the durable log
        report = db.restart()
        check = db.begin()
        assert db.fetch(check, "t", "by_id", 100) is None
        db.commit(check)

    def test_stolen_inflight_pages_undone(self):
        """Steal: dirty pages of an uncommitted txn hit disk; restart
        must undo them from the log."""
        db = make_db()
        populate(db, range(20))
        txn = db.begin()
        db.insert(txn, "t", {"id": 100, "val": "stolen"})
        db.flush_all_pages()  # forces WAL too (WAL rule)
        db.crash()
        db.restart()
        check = db.begin()
        assert db.fetch(check, "t", "by_id", 100) is None
        db.commit(check)
        assert db.verify_indexes() == {}

    def test_mid_rollback_crash_resumes_via_clrs(self):
        """CLRs bound rollback work: a crash during rollback must not
        redo-then-undo the already-undone prefix twice."""
        db = make_db(page_size=1024)
        populate(db, range(100))
        txn = db.begin()
        for key in range(200, 260):
            db.insert(txn, "t", {"id": key, "val": "x"})
        # Crash mid-rollback: start the rollback by hand, undo part of
        # the chain (writing CLRs), force the log, crash.
        from repro.wal.records import NULL_LSN, LogRecord, RecordKind

        db.txns.log_for(
            txn,
            LogRecord(kind=RecordKind.ROLLBACK, txn_id=txn.txn_id, undoable=False),
        )
        txn.in_rollback = True
        # Undo half the chain by hand, writing CLRs.
        target = 30
        undone = 0
        while undone < target and txn.undo_next_lsn != NULL_LSN:
            record = db.log.read(txn.undo_next_lsn)
            if record.is_clr:
                txn.undo_next_lsn = record.undo_next_lsn or NULL_LSN
            elif record.kind is RecordKind.UPDATE and record.undoable:
                db.rm_registry.undo(db, txn, record)
                undone += 1
                txn.undo_next_lsn = record.prev_lsn
            else:
                txn.undo_next_lsn = record.prev_lsn
        db.log.force()
        db.crash()
        db.restart()
        check = db.begin()
        for key in range(200, 260):
            assert db.fetch(check, "t", "by_id", key) is None
        db.commit(check)
        assert count_keys(db) == 100
        assert db.verify_indexes() == {}


class TestWinnersAndLosers:
    def test_mixed_transactions(self):
        db = make_db()
        populate(db, range(20))
        committed = db.begin()
        db.insert(committed, "t", {"id": 50, "val": "win"})
        db.commit(committed)
        loser = db.begin()
        db.insert(loser, "t", {"id": 60, "val": "lose"})
        db.log.force()
        db.crash()
        report = db.restart()
        assert report.undo.transactions_rolled_back == 1
        check = db.begin()
        assert db.fetch(check, "t", "by_id", 50) is not None
        assert db.fetch(check, "t", "by_id", 60) is None
        db.commit(check)

    def test_transaction_ids_not_reused_after_restart(self):
        db = make_db()
        txn = db.begin()
        db.insert(txn, "t", {"id": 1, "val": "v"})
        old_id = txn.txn_id
        db.commit(txn)
        db.crash()
        db.restart()
        fresh = db.begin()
        assert fresh.txn_id > old_id
        db.commit(fresh)

    def test_work_continues_after_restart(self):
        db = make_db()
        populate(db, range(10))
        db.crash()
        db.restart()
        populate(db, range(10, 20))
        assert count_keys(db) == 20
        db.crash()
        db.restart()
        assert count_keys(db) == 20


class TestCheckpoints:
    def test_checkpoint_bounds_analysis_work(self):
        db = make_db()
        populate(db, range(100))
        db.flush_all_pages()
        db.checkpoint()
        populate(db, range(100, 110))
        db.crash()
        report = db.restart()
        # Analysis started at the checkpoint, not LSN 1.
        total_records = sum(1 for _ in db.log.records())
        assert report.analysis.records_scanned < total_records

    def test_checkpoint_carries_live_transaction(self):
        db = make_db()
        populate(db, range(10))
        txn = db.begin()
        db.insert(txn, "t", {"id": 99, "val": "live"})
        db.checkpoint()  # fuzzy: txn is in the checkpoint's table
        # Crash without any further records from txn.
        db.crash()
        report = db.restart()
        assert report.undo.transactions_rolled_back == 1
        check = db.begin()
        assert db.fetch(check, "t", "by_id", 99) is None
        db.commit(check)

    def test_checkpoint_racing_a_losers_last_append(self):
        """A checkpoint begun while a loser's last record is appended but
        not yet noted on the transaction must not record the loser
        without it: restart would never undo that record, and the index
        would keep the loser's key over a heap row that is gone."""
        db = make_db()
        populate(db, range(10))
        loser = db.begin()
        db.insert(loser, "t", {"id": 100, "val": "first"})
        appended, release = threading.Event(), threading.Event()
        append = db.log.append

        def append_then_hold(record):
            lsn = append(record)
            if record.txn_id == loser.txn_id and record.rm == RM_BTREE:
                appended.set()
                release.wait(10.0)
            return lsn

        db.log.append = append_then_hold
        try:
            inserting = threading.Thread(
                target=db.insert, args=(loser, "t", {"id": 101, "val": "second"})
            )
            inserting.start()
            assert appended.wait(10.0)
            checkpointing = threading.Thread(target=db.checkpoint)
            checkpointing.start()
            checkpointing.join(0.5)  # a checkpoint that does not wait ends here
            release.set()
            inserting.join(10.0)
            checkpointing.join(10.0)
            assert not inserting.is_alive() and not checkpointing.is_alive()
        finally:
            release.set()
            del db.log.append
        db.log.force()
        db.crash()
        db.restart()
        assert count_keys(db) == 10
        check = db.begin()
        assert db.fetch(check, "t", "by_id", 100) is None
        assert db.fetch(check, "t", "by_id", 101) is None
        db.commit(check)
        assert db.verify_indexes() == {}

    def test_restart_ends_with_checkpoint(self):
        db = make_db()
        populate(db, range(10))
        db.crash()
        before = db.stats.get("recovery.checkpoints_taken")
        db.restart()
        assert db.stats.get("recovery.checkpoints_taken") == before + 1


class TestSMBitsAfterRestart:
    def test_redo_repeated_sm_bits_reset_lazily(self):
        """Redo repeats history including SM_Bit sets; the unlogged
        resets are not replayed.  Traffic after restart must reset the
        stale bits lazily instead of looping."""
        db = make_db(page_size=768)
        populate(db, range(200))  # plenty of splits
        db.crash()
        db.restart()
        assert count_keys(db) == 200
        txn = db.begin()
        db.insert(txn, "t", {"id": 5000, "val": "post"})
        db.delete_by_key(txn, "t", "by_id", 5000)
        db.commit(txn)
        assert db.verify_indexes() == {}
