"""Unit-level tests of the redo driver and the RM redo handlers."""

from repro.btree.node import IndexPage
from repro.btree.recovery import BTreeResourceManager
from repro.common.rid import RID, IndexKey
from repro.data.heap import HeapPage, HeapResourceManager
from repro.recovery.analysis import run_analysis
from repro.recovery.instant import RecoveryGovernor
from repro.recovery.redo import run_redo
from repro.wal.records import clr_record, update_record
from tests.conftest import build_db, populate


def redo(db):
    """Analysis, then restart redo: drain the pending set of a fresh
    governor on this thread."""
    governor = RecoveryGovernor(db, run_analysis(db))
    governor.prepare()
    return run_redo(governor)


def make_db():
    db = build_db()
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    return db


class TestRedoDriver:
    def test_skips_pages_below_rec_lsn(self):
        """Records older than a page's DPT recLSN are not even
        examined against the page (the classic ARIES filter)."""
        db = make_db()
        populate(db, range(30))
        db.flush_all_pages()  # disk is current; DPT empty
        populate(db, range(100, 110))  # new dirty work
        db.log.force()
        db.log.crash()
        db.buffer.crash()
        result = redo(db)
        # Only the post-flush records could need redo.
        assert 0 < result.records_redone < 80

    def test_page_lsn_makes_redo_idempotent(self):
        db = make_db()
        populate(db, range(30))
        db.flush_all_pages()
        db.log.force()
        db.buffer.crash()
        # DPT still names the pages (log records), but every page on
        # disk already carries the final LSNs.
        result = redo(db)
        assert result.records_redone == 0

    def test_shell_created_for_lost_page(self):
        db = make_db()
        populate(db, range(30))  # nothing flushed
        db.log.force()
        db.crash()
        result = redo(db)
        assert result.records_redone > 0
        # The index root exists again, rebuilt purely from the log.
        tree = db.tables["t"].indexes["by_id"]
        page = db.buffer.fix(tree.root_page_id)
        db.buffer.unfix(tree.root_page_id)
        assert isinstance(page, IndexPage)


class TestBTreeRMRedo:
    def apply(self, page, record):
        db = build_db()
        BTreeResourceManager().apply_redo(db, page, record)

    def leaf(self):
        page = IndexPage(5, index_id=1, level=0)
        page.insert_key(IndexKey(b"b", RID(1, 1)))
        return page

    def test_insert_key_redo(self):
        page = self.leaf()
        record = update_record(1, "btree", "insert_key", 5,
                               {"index_id": 1, "key": IndexKey(b"c", RID(1, 2))})
        self.apply(page, record)
        assert len(page.keys) == 2

    def test_delete_key_redo_sets_delete_bit(self):
        page = self.leaf()
        record = update_record(
            1, "btree", "delete_key", 5,
            {"index_id": 1, "key": IndexKey(b"b", RID(1, 1)), "set_delete_bit": True},
        )
        self.apply(page, record)
        assert page.keys == []
        assert page.delete_bit

    def test_leaf_shrink_redo(self):
        page = self.leaf()
        moved = [IndexKey(b"b", RID(1, 1))]
        record = update_record(
            1, "btree", "leaf_shrink", 5,
            {"index_id": 1, "moved": moved, "old_next": 0, "new_next": 9,
             "sm_bit_before": False},
        )
        self.apply(page, record)
        assert page.keys == []
        assert page.next_leaf == 9
        assert page.sm_bit

    def test_chain_redo(self):
        page = self.leaf()
        self.apply(page, update_record(1, "btree", "chain_prev", 5,
                                       {"before": 0, "after": 3}))
        self.apply(page, update_record(1, "btree", "chain_next", 5,
                                       {"before": 0, "after": 7}))
        assert (page.prev_leaf, page.next_leaf) == (3, 7)

    def test_set_page_redo(self):
        page = self.leaf()
        other = IndexPage(5, index_id=1, level=2)
        other.child_ids = [10]
        other.high_keys = [None]
        record = update_record(
            1, "btree", "set_page", 5,
            {"before": page.to_payload(), "after": other.to_payload()},
        )
        self.apply(page, record)
        assert page.level == 2 and page.child_ids == [10]

    def test_set_page_clr_redo(self):
        page = self.leaf()
        state = IndexPage(5, index_id=1, level=0).to_payload()
        record = clr_record(1, "btree", "set_page_c", 5, {"state": state}, 0)
        self.apply(page, record)
        assert page.keys == []

    def test_make_shell(self):
        record = update_record(1, "btree", "page_format", 7, {"page": {}})
        shell = BTreeResourceManager().make_shell(record)
        assert isinstance(shell, IndexPage) and shell.page_id == 7


class TestHeapRMRedo:
    def apply(self, page, record):
        db = build_db()
        HeapResourceManager().apply_redo(db, page, record)

    def test_insert_redo(self):
        page = HeapPage(3, table_id=1)
        record = update_record(1, "heap", "insert", 3,
                               {"rid": RID(3, 0), "data": b"x"})
        self.apply(page, record)
        assert page.record(0) == b"x"

    def test_delete_redo_ghosts(self):
        page = HeapPage(3, table_id=1)
        page.append_record(b"x")
        record = update_record(1, "heap", "delete", 3,
                               {"rid": RID(3, 0), "data": b"x"})
        self.apply(page, record)
        assert not page.is_visible(0)

    def test_unghost_clr_redo(self):
        page = HeapPage(3, table_id=1)
        page.append_record(b"x")
        page.set_ghost(0, ghost=True)
        record = clr_record(1, "heap", "unghost_c", 3,
                            {"rid": RID(3, 0), "data": b"x"}, 0)
        self.apply(page, record)
        assert page.is_visible(0)

    def test_remove_clr_redo(self):
        page = HeapPage(3, table_id=1)
        page.append_record(b"x")
        record = clr_record(1, "heap", "remove_c", 3,
                            {"rid": RID(3, 0), "data": b"x"}, 0)
        self.apply(page, record)
        assert page.slots[0] is None

    def test_format_redo_resets(self):
        page = HeapPage(3, table_id=0)
        page.append_record(b"junk")
        record = update_record(1, "heap", "format", 3, {"table_id": 9},
                               undoable=False)
        self.apply(page, record)
        assert page.table_id == 9 and page.slots == []
