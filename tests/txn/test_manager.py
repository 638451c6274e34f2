"""Transaction manager: commit, rollback, savepoints, NTAs, CLR chains."""

import pytest

from repro.analysis.walcheck import check_log
from repro.common.errors import (
    DatabaseClosedError,
    TransactionNotActiveError,
)
from repro.txn.transaction import TxnStatus
from repro.wal.records import NULL_LSN, LogRecord, RecordKind
from tests.conftest import build_db, populate


class TestCommit:
    def test_commit_forces_log(self, table_db):
        txn = table_db.begin()
        table_db.insert(txn, "t", {"id": 1, "val": "v"})
        update_lsn = txn.last_lsn
        assert table_db.log.flushed_lsn < update_lsn
        table_db.commit(txn)
        # The commit record (the one after the update) is durable.
        assert table_db.log.flushed_lsn >= update_lsn

    def test_commit_writes_commit_then_end(self, table_db):
        txn = table_db.begin()
        table_db.insert(txn, "t", {"id": 1, "val": "v"})
        table_db.commit(txn)
        kinds = [r.kind for r in table_db.log.tail(2)]
        assert kinds == [RecordKind.COMMIT, RecordKind.END]

    def test_commit_releases_locks(self, table_db):
        txn = table_db.begin()
        table_db.insert(txn, "t", {"id": 1, "val": "v"})
        assert table_db.locks.lock_count(txn.txn_id) > 0
        table_db.commit(txn)
        assert table_db.locks.lock_count(txn.txn_id) == 0

    def test_double_commit_rejected(self, table_db):
        txn = table_db.begin()
        table_db.commit(txn)
        with pytest.raises(TransactionNotActiveError):
            table_db.commit(txn)

    def test_commit_after_rollback_rejected(self, table_db):
        txn = table_db.begin()
        table_db.rollback(txn)
        with pytest.raises(TransactionNotActiveError):
            table_db.commit(txn)


class TestRollback:
    def test_rollback_undoes_inserts(self, table_db):
        populate(table_db, [10])
        txn = table_db.begin()
        table_db.insert(txn, "t", {"id": 20, "val": "v"})
        table_db.rollback(txn)
        check = table_db.begin()
        assert table_db.fetch(check, "t", "by_id", 20) is None
        assert table_db.fetch(check, "t", "by_id", 10) is not None
        table_db.commit(check)

    def test_rollback_undoes_deletes(self, table_db):
        populate(table_db, [10, 20])
        txn = table_db.begin()
        table_db.delete_by_key(txn, "t", "by_id", 10)
        table_db.rollback(txn)
        check = table_db.begin()
        assert table_db.fetch(check, "t", "by_id", 10) is not None
        table_db.commit(check)

    def test_rollback_writes_clrs_with_undo_next_chain(self, table_db):
        txn = table_db.begin()
        table_db.insert(txn, "t", {"id": 1, "val": "v"})
        insert_records = [
            r
            for r in table_db.log.records()
            if r.txn_id == txn.txn_id and r.kind is RecordKind.UPDATE and r.undoable
        ]
        table_db.rollback(txn)
        clrs = [
            r
            for r in table_db.log.records()
            if r.txn_id == txn.txn_id and r.kind is RecordKind.CLR
        ]
        assert len(clrs) == len(insert_records)
        # Each CLR points to the predecessor of the record it undoes.
        undone_prevs = {r.prev_lsn for r in insert_records}
        assert {c.undo_next_lsn for c in clrs} <= undone_prevs | {NULL_LSN}

    def test_rollback_releases_locks_and_ends(self, table_db):
        txn = table_db.begin()
        table_db.insert(txn, "t", {"id": 1, "val": "v"})
        table_db.rollback(txn)
        assert table_db.locks.lock_count(txn.txn_id) == 0
        assert txn.status is TxnStatus.ENDED

    def test_empty_rollback(self, table_db):
        txn = table_db.begin()
        table_db.rollback(txn)
        assert txn.status is TxnStatus.ENDED


class TestSavepoints:
    def test_partial_rollback(self, table_db):
        txn = table_db.begin()
        table_db.insert(txn, "t", {"id": 1, "val": "keep"})
        table_db.savepoint(txn, "sp")
        table_db.insert(txn, "t", {"id": 2, "val": "drop"})
        table_db.rollback_to_savepoint(txn, "sp")
        table_db.commit(txn)
        check = table_db.begin()
        assert table_db.fetch(check, "t", "by_id", 1) is not None
        assert table_db.fetch(check, "t", "by_id", 2) is None
        table_db.commit(check)

    def test_partial_rollback_keeps_locks(self, table_db):
        txn = table_db.begin()
        table_db.savepoint(txn, "sp")
        table_db.insert(txn, "t", {"id": 2, "val": "drop"})
        held_before = table_db.locks.lock_count(txn.txn_id)
        table_db.rollback_to_savepoint(txn, "sp")
        assert table_db.locks.lock_count(txn.txn_id) == held_before
        table_db.commit(txn)

    def test_work_after_partial_rollback(self, table_db):
        txn = table_db.begin()
        table_db.savepoint(txn, "sp")
        table_db.insert(txn, "t", {"id": 5, "val": "a"})
        table_db.rollback_to_savepoint(txn, "sp")
        table_db.insert(txn, "t", {"id": 5, "val": "b"})
        table_db.commit(txn)
        check = table_db.begin()
        assert table_db.fetch(check, "t", "by_id", 5)["val"] == "b"
        table_db.commit(check)

    def test_nested_savepoints(self, table_db):
        txn = table_db.begin()
        table_db.insert(txn, "t", {"id": 1, "val": "v"})
        table_db.savepoint(txn, "outer")
        table_db.insert(txn, "t", {"id": 2, "val": "v"})
        table_db.savepoint(txn, "inner")
        table_db.insert(txn, "t", {"id": 3, "val": "v"})
        table_db.rollback_to_savepoint(txn, "inner")
        table_db.rollback_to_savepoint(txn, "outer")
        table_db.commit(txn)
        check = table_db.begin()
        present = [k for k in (1, 2, 3) if table_db.fetch(check, "t", "by_id", k)]
        table_db.commit(check)
        assert present == [1]


class TestNestedTopActions:
    def test_dummy_clr_skips_nta_on_rollback(self, table_db):
        """A hand-built NTA: its heap insert survives the rollback,
        while the pre-NTA insert is undone — the §1.2 semantics."""
        db = table_db
        txn = db.begin()
        db.insert(txn, "t", {"id": 1, "val": "pre"})
        db.txns.begin_nta(txn)
        db.insert(txn, "t", {"id": 2, "val": "nta"})
        db.txns.end_nta(txn)
        db.rollback(txn)
        check = db.begin()
        assert db.fetch(check, "t", "by_id", 1) is None
        # Key 2's heap record persists; its lock died with the txn.
        assert db.fetch(check, "t", "by_id", 2) is not None
        db.commit(check)

    def test_incomplete_nta_is_undone(self, table_db):
        db = table_db
        txn = db.begin()
        db.txns.begin_nta(txn)
        db.insert(txn, "t", {"id": 9, "val": "nta"})
        db.txns.abandon_nta(txn)
        db.rollback(txn)
        check = db.begin()
        assert db.fetch(check, "t", "by_id", 9) is None
        db.commit(check)

    def test_dummy_clr_points_at_pre_nta_lsn(self, table_db):
        db = table_db
        txn = db.begin()
        db.insert(txn, "t", {"id": 1, "val": "v"})
        pre_nta = txn.last_lsn
        db.txns.begin_nta(txn)
        db.insert(txn, "t", {"id": 2, "val": "v"})
        db.txns.end_nta(txn)
        dummy = db.log.read(txn.last_lsn)
        assert dummy.kind is RecordKind.DUMMY_CLR
        assert dummy.undo_next_lsn == pre_nta
        db.rollback(txn)


class TestPreCrashTransactions:
    """A crash replaces the transaction manager; a thread still holding
    a transaction from before it (a GC pass, a session unwinding) must
    not append to the restarted log."""

    def test_successor_manager_refuses_a_pre_crash_transaction(self, table_db):
        db = table_db
        populate(db, [1])
        stale = db.begin()
        db.insert(stale, "t", {"id": 2, "val": "pre-crash"})
        db.crash()
        db.restart()
        end = db.log.end_lsn
        with pytest.raises(DatabaseClosedError):
            db.txns.log_for(stale, LogRecord(kind=RecordKind.COMMIT, txn_id=stale.txn_id))
        with pytest.raises(DatabaseClosedError):
            db.insert(stale, "t", {"id": 3, "val": "stale"})
        assert db.log.end_lsn == end
        assert check_log(db.log).ok
        fresh = db.begin()
        db.insert(fresh, "t", {"id": 4, "val": "post-restart"})
        db.commit(fresh)

    def test_successor_manager_admits_no_transaction_before_restart(self, table_db):
        """A thread past ``Database.begin``'s crashed check when the
        crash lands reaches the successor manager, which would count ids
        from 1 again; until restart sets the id floor it refuses."""
        db = table_db
        populate(db, [1, 2, 3])
        db.crash()
        with pytest.raises(DatabaseClosedError):
            db.txns.begin()
        db.restart()
        assert db.begin().txn_id > 1

    def test_crash_stops_the_gc_pacer_and_restart_starts_a_new_one(self):
        db = build_db(mvcc_gc_interval_seconds=60.0)
        pacer = db.incarnation.gc_pacer
        assert pacer.is_alive()
        db.crash()
        assert not pacer.is_alive()
        db.restart()
        successor = db.incarnation.gc_pacer
        assert successor is not pacer and successor.is_alive()
        db.close()
        assert not successor.is_alive()
