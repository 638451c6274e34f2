"""The ``with db.transaction()`` scope and the database lifecycle
(``close()`` / ``with Database() as db``)."""

import pytest

from repro.common.errors import DatabaseClosedError, UniqueKeyViolationError
from repro.txn.transaction import TxnStatus
from tests.conftest import build_db


def make_db():
    db = build_db()
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    return db


class TestTransactionScope:
    def test_commits_on_clean_exit(self):
        db = make_db()
        with db.transaction() as txn:
            db.insert(txn, "t", {"id": 1, "val": "v"})
        assert txn.status is TxnStatus.ENDED
        with db.transaction() as check:
            assert db.fetch(check, "t", "by_id", 1) is not None

    def test_rolls_back_on_exception(self):
        db = make_db()
        with pytest.raises(RuntimeError):
            with db.transaction() as txn:
                db.insert(txn, "t", {"id": 2, "val": "v"})
                raise RuntimeError("boom")
        with db.transaction() as check:
            assert db.fetch(check, "t", "by_id", 2) is None

    def test_library_errors_roll_back_too(self):
        db = make_db()
        with db.transaction() as txn:
            db.insert(txn, "t", {"id": 3, "val": "v"})
        with pytest.raises(UniqueKeyViolationError):
            with db.transaction() as txn:
                db.insert(txn, "t", {"id": 99, "val": "collateral"})
                db.insert(txn, "t", {"id": 3, "val": "dup"})
        with db.transaction() as check:
            assert db.fetch(check, "t", "by_id", 99) is None  # rolled back

    def test_explicit_commit_inside_scope_respected(self):
        db = make_db()
        with db.transaction() as txn:
            db.insert(txn, "t", {"id": 4, "val": "v"})
            db.commit(txn)  # user commits early; scope must not double-end
        with db.transaction() as check:
            assert db.fetch(check, "t", "by_id", 4) is not None

    def test_explicit_rollback_inside_scope_respected(self):
        db = make_db()
        with db.transaction() as txn:
            db.insert(txn, "t", {"id": 5, "val": "v"})
            db.rollback(txn)
        with db.transaction() as check:
            assert db.fetch(check, "t", "by_id", 5) is None

    def test_nested_scopes_are_independent_transactions(self):
        db = make_db()
        with db.transaction() as outer:
            db.insert(outer, "t", {"id": 10, "val": "outer"})
            with db.transaction() as inner:
                db.insert(inner, "t", {"id": 20, "val": "inner"})
            assert inner.txn_id != outer.txn_id
        with db.transaction() as check:
            assert db.fetch(check, "t", "by_id", 10) is not None
            assert db.fetch(check, "t", "by_id", 20) is not None


class TestDatabaseLifecycle:
    def test_close_is_idempotent_and_flushes(self):
        db = make_db()
        with db.transaction() as txn:
            db.insert(txn, "t", {"id": 1, "val": "v"})
        db.close()
        assert db.closed
        db.close()  # second close is a no-op
        assert db.stats.get("db.closes") == 1
        # Everything dirty was flushed: the log has no unforced bytes.
        assert db.log.unforced_bytes == 0

    def test_begin_after_close_raises(self):
        db = make_db()
        db.close()
        with pytest.raises(DatabaseClosedError):
            db.begin()

    def test_close_rolls_back_active_transactions(self):
        db = make_db()
        txns = db.txns
        txn = db.begin()
        db.insert(txn, "t", {"id": 2, "val": "v"})
        db.close()
        assert txns.active_transactions() == []
        assert txn.status is TxnStatus.ENDED

    def test_context_manager_closes(self):
        with make_db() as db:
            with db.transaction() as txn:
                db.insert(txn, "t", {"id": 3, "val": "v"})
        assert db.closed

    def test_context_manager_closes_on_exception(self):
        with pytest.raises(RuntimeError):
            with make_db() as db:
                raise RuntimeError("boom")
        assert db.closed

    def test_close_takes_final_checkpoint(self):
        db = make_db()
        before = db.stats.get("recovery.checkpoints_taken")
        db.close()
        assert db.stats.get("recovery.checkpoints_taken") == before + 1

    def test_close_after_crash_skips_flush_work(self):
        db = make_db()
        with db.transaction() as txn:
            db.insert(txn, "t", {"id": 4, "val": "v"})
        db.crash()
        db.close()  # must not touch the dead instance's volatile state
        assert db.closed
