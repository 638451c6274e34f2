"""Inspection tooling: tree/log/transaction dumps, stats summary, and
the MVCC, instant-restart and latch-order views."""

from repro.analysis.lockgraph import LatchOrderMonitor
from repro.storage.latch import get_latch_monitor, set_latch_monitor
from repro.tools import (
    dump_archive,
    dump_log,
    dump_transaction,
    dump_tree,
    summarize_stats,
)
from repro.tools.inspect import dump_lockgraph, dump_recovery_progress, dump_versions
from tests.conftest import build_db, populate


def make_db():
    db = build_db(page_size=768)
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    populate(db, range(60))
    return db


class TestDumpTree:
    def test_shows_structure(self):
        db = make_db()
        tree = db.tables["t"].indexes["by_id"]
        text = dump_tree(tree)
        assert "index 'by_id'" in text
        assert "nonleaf" in text  # 60 keys at 768B pages → multi-level
        assert "leaf" in text
        assert f"root={tree.root_page_id}" in text

    def test_single_leaf_tree(self):
        db = build_db()
        db.create_table("t")
        db.create_index("t", "by_id", column="id", unique=True)
        populate(db, [1, 2])
        text = dump_tree(db.tables["t"].indexes["by_id"])
        assert "leaf" in text and "nonleaf" not in text

    def test_bits_flagged(self):
        db = build_db(page_size=768, reset_sm_bits_after_smo=False)
        db.create_table("t")
        db.create_index("t", "by_id", column="id", unique=True)
        populate(db, range(80))
        text = dump_tree(db.tables["t"].indexes["by_id"])
        assert "bits=S" in text  # lazy mode leaves SM bits set

    def test_truncates_long_pages(self):
        db = make_db()
        text = dump_tree(db.tables["t"].indexes["by_id"], max_keys_per_page=2)
        assert "+" in text  # the "... +N" marker


class TestDumpLog:
    def test_full_dump_has_every_record(self):
        db = make_db()
        text = dump_log(db)
        assert text.count("lsn=") == len(list(db.log.records()))

    def test_filter_by_txn(self):
        db = make_db()
        txn = db.begin()
        db.insert(txn, "t", {"id": 500, "val": "x"})
        db.commit(txn)
        text = dump_log(db, txn_id=txn.txn_id)
        assert f"txn={txn.txn_id}" in text
        assert "commit" in text
        other_ids = {
            line.split("txn=")[1].split()[0] for line in text.splitlines()
        }
        assert other_ids == {str(txn.txn_id)}

    def test_filter_by_page(self):
        db = make_db()
        tree = db.tables["t"].indexes["by_id"]
        text = dump_log(db, page_id=tree.root_page_id)
        assert f"page={tree.root_page_id}" in text

    def test_limit(self):
        db = make_db()
        text = dump_log(db, limit=3)
        assert "truncated" in text
        assert text.count("lsn=") == 3

    def test_no_match(self):
        db = make_db()
        assert "no matching" in dump_log(db, txn_id=10**6)


class TestDumpTransaction:
    def test_rollback_chain_annotated(self):
        db = make_db()
        txn = db.begin()
        db.insert(txn, "t", {"id": 700, "val": "x"})
        db.rollback(txn)
        text = dump_transaction(db, txn.txn_id)
        assert "↩" in text  # CLRs marked
        assert "rollback" in text

    def test_nta_marked(self):
        db = build_db(page_size=768)
        db.create_table("t")
        db.create_index("t", "by_id", column="id", unique=True)
        populate(db, range(30))
        txn = db.begin()
        before = db.stats.get("btree.page_splits")
        key = 900
        while db.stats.get("btree.page_splits") == before:
            db.insert(txn, "t", {"id": key, "val": "y" * 8})
            key += 1
        db.commit(txn)
        text = dump_transaction(db, txn.txn_id)
        assert "⤶" in text  # the dummy CLR

    def test_unknown_txn(self):
        db = make_db()
        assert "no records" in dump_transaction(db, 10**6)


class TestDumpArchive:
    def make_archived_db(self):
        db = make_db()
        db.attach_archive()
        populate(db, range(1000, 1030))
        db.flush_all_pages()
        db.checkpoint()
        assert db.trim_log() > 0
        return db

    def test_segments_and_records_shown(self):
        db = self.make_archived_db()
        text = dump_archive(db)
        assert "-- segment 0" in text
        assert "lsn=" in text
        # the archive's last record abuts the live log's first
        assert f"{db.archive.end_lsn})" in text.splitlines()[0]

    def test_limit(self):
        db = self.make_archived_db()
        text = dump_archive(db, limit=3)
        assert "truncated" in text
        assert text.count("lsn=") == 3

    def test_no_archive(self):
        assert "no archive" in dump_archive(make_db())

    def test_empty_archive(self):
        db = make_db()
        db.attach_archive()
        assert "empty" in dump_archive(db)


class TestSummarizeStats:
    def test_groups_present(self):
        db = make_db()
        text = summarize_stats(db)
        for group in ("locks", "latches", "log", "btree"):
            assert f"-- {group} --" in text


class TestDumpVersions:
    """The MVCC view: what a snapshot pins and GC has yet to sweep."""

    def test_counts_ghosts_and_dead_keys_a_snapshot_pins(self):
        db = make_db()
        snap = db.begin_snapshot()
        for key in (1, 2):
            txn = db.begin()
            db.delete_by_key(txn, "t", "by_id", key)
            db.commit(txn)
        text = dump_versions(db)
        assert "active_snapshots=1" in text
        assert "table 't': 2 ghost slot(s)" in text
        assert "index 'by_id': 2 dead key(s) over 2 value(s) [chains: 2 key(s) x1]" in text
        db.end_snapshot(snap)

    def test_mvcc_disabled(self):
        assert "disabled" in dump_versions(build_db(mvcc_enabled=False))


class TestDumpRecoveryProgress:
    def test_steady_state(self):
        text = dump_recovery_progress(make_db())
        assert text.startswith("recovery state: steady")
        assert "no instant restart" in text

    def test_draining_instant_restart(self):
        db = make_db()
        populate(db, range(100, 140))
        db.crash()
        db.instant_restart(background=False)
        text = dump_recovery_progress(db)
        assert text.startswith("recovery state: recovering")
        assert "pages pending:" in text and "recovered on demand:" in text
        db.recovery.drain()
        assert dump_recovery_progress(db).startswith("recovery state: steady")


class TestDumpLockgraph:
    def test_no_monitor(self):
        prev = get_latch_monitor()
        set_latch_monitor(None)
        try:
            assert dump_lockgraph() == "(no latch-order monitor installed)"
        finally:
            set_latch_monitor(prev)

    def test_renders_the_graph_of_a_workload(self):
        prev = get_latch_monitor()
        set_latch_monitor(LatchOrderMonitor())
        try:
            make_db()  # built after the install, so its latches report to it
            lines = dump_lockgraph().splitlines()
        finally:
            set_latch_monitor(prev)
        assert lines[0].startswith("latch acquisitions observed: ")
        assert any(" -> " in line or " => " in line for line in lines[1:-1])
        assert lines[-1] == "acyclic over blocking edges (deadlock-free orderings)"
