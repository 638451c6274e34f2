"""Structure modification operations: Figures 8, 9 and 10.

Covers the exact logging shapes the paper draws, the survival of
completed SMOs across enclosing-transaction rollback, and structural
integrity at scale.
"""

import pytest

from repro.wal.records import RecordKind
from tests.conftest import build_db, populate


def small_page_db(**overrides):
    """Small pages so a handful of keys forces splits."""
    db = build_db(page_size=768, **overrides)
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    return db


def tree_of(db):
    return db.tables["t"].indexes["by_id"]


class TestSplits:
    def test_split_produces_consistent_tree(self):
        db = small_page_db()
        populate(db, range(100))
        assert db.stats.get("btree.page_splits") > 0
        assert db.verify_indexes() == {}
        assert len(tree_of(db).all_keys()) == 100

    def test_root_grows_once_then_splits_cascade(self):
        db = small_page_db()
        populate(db, range(500))
        assert db.stats.get("btree.root_grows") >= 2  # multi-level tree
        assert db.verify_indexes() == {}

    def test_figure9_log_sequence(self):
        """Figure 9: split records, then the dummy CLR, then the insert
        that required the split — in that order."""
        db = small_page_db()
        populate(db, range(30))
        txn = db.begin()
        before = db.stats.get("btree.page_splits")
        key = 1000
        start = db.log.end_lsn
        while db.stats.get("btree.page_splits") == before:
            start = db.log.end_lsn
            db.insert(txn, "t", {"id": key, "val": "trigger"})
            key += 1
        db.commit(txn)
        records = [r for r in db.log.records(start) if r.txn_id == txn.txn_id]
        kinds = [(r.kind, r.op) for r in records]
        dummy_pos = next(
            i for i, (k, _) in enumerate(kinds) if k is RecordKind.DUMMY_CLR
        )
        insert_pos = next(
            i for i, (k, op) in enumerate(kinds) if op == "insert_key"
        )
        smo_ops = {op for k, op in kinds[:dummy_pos] if k is RecordKind.UPDATE}
        assert insert_pos > dummy_pos, "insert must follow the dummy CLR"
        assert "page_format" in smo_ops and "leaf_shrink" in smo_ops

    def test_rollback_after_split_keeps_split_undoes_insert(self):
        """§3: a completed SMO survives the rollback of its transaction."""
        db = small_page_db()
        populate(db, range(30))
        pages_before = db.stats.get("btree.page_splits")
        txn = db.begin()
        key = 1000
        while db.stats.get("btree.page_splits") == pages_before:
            db.insert(txn, "t", {"id": key, "val": "trigger"})
            key += 1
        inserted = list(range(1000, key))
        db.rollback(txn)
        check = db.begin()
        for k in inserted:  # every insert undone
            assert db.fetch(check, "t", "by_id", k) is None
        db.commit(check)
        assert db.verify_indexes() == {}
        # The split itself was not undone: no compensating page_format
        # removal happened (undo stats show no SMO-record undos).
        assert db.stats.get("btree.undo.smo_records") == 0

    def test_other_txns_keys_survive_neighbour_rollback(self):
        """§1.1 problem (4): undoing T1's SMO would wipe T2's updates;
        the NTA prevents that."""
        db = small_page_db()
        populate(db, range(30))
        t1 = db.begin()
        db.insert(t1, "t", {"id": 1000, "val": "splitter"})
        t2 = db.begin()
        db.insert(t2, "t", {"id": 1001, "val": "rider"})
        db.commit(t2)
        db.rollback(t1)
        check = db.begin()
        assert db.fetch(check, "t", "by_id", 1001) is not None
        assert db.fetch(check, "t", "by_id", 1000) is None
        db.commit(check)
        assert db.verify_indexes() == {}


class TestPageDeletes:
    def test_empty_page_removed_from_tree(self):
        db = small_page_db()
        populate(db, range(100))
        txn = db.begin()
        for key in range(100):
            db.delete_by_key(txn, "t", "by_id", key)
        db.commit(txn)
        assert db.stats.get("btree.page_deletes") > 0
        assert db.verify_indexes() == {}
        assert tree_of(db).all_keys() == []

    def test_figure10_log_sequence(self):
        """Figure 10: the key delete is logged first, then the page
        delete's records, then the dummy CLR pointing *at the key
        delete record* (so the delete stays undoable)."""
        db = small_page_db()
        populate(db, range(60))
        tree = tree_of(db)
        from repro.common.keys import decode_int_key

        # Identify the keys of the last (rightmost) leaf.
        page = tree.fix_page(tree.root_page_id, tree.ctx.incarnation)
        while not page.is_leaf:
            child = page.child_ids[-1]
            db.buffer.unfix(page.page_id)
            page = tree.fix_page(child, tree.ctx.incarnation)
        last_leaf_keys = [decode_int_key(k.value) for k in page.keys]
        db.buffer.unfix(page.page_id)
        assert len(last_leaf_keys) >= 2

        # Drain it down to one key, committed.
        txn = db.begin()
        for key in last_leaf_keys[:-1]:
            db.delete_by_key(txn, "t", "by_id", key)
        db.commit(txn)

        # The final delete empties the page: one key delete, SMO
        # records, dummy CLR anchored at the key-delete record.
        before = db.stats.get("btree.page_deletes")
        start = db.log.end_lsn
        txn = db.begin()
        db.delete_by_key(txn, "t", "by_id", last_leaf_keys[-1])
        db.commit(txn)
        assert db.stats.get("btree.page_deletes") == before + 1
        records = [r for r in db.log.records(start) if r.txn_id == txn.txn_id]
        delete_lsn = next(r.lsn for r in records if r.op == "delete_key")
        dummy = next(r for r in records if r.kind is RecordKind.DUMMY_CLR)
        assert dummy.undo_next_lsn == delete_lsn
        smo_ops = [
            r.op
            for r in records
            if r.kind is RecordKind.UPDATE and delete_lsn < r.lsn < dummy.lsn
        ]
        assert "set_page" in smo_ops  # mark/unlink/free records
        assert dummy.lsn > delete_lsn

    def test_rollback_after_page_delete_restores_key_elsewhere(self):
        """The page is gone; the key delete is undone *logically*."""
        db = small_page_db()
        populate(db, range(100))
        # Find the keys of one non-root leaf and delete them in one txn,
        # then roll back: the page delete survives, the keys return.
        txn = db.begin()
        for key in range(100):
            db.delete_by_key(txn, "t", "by_id", key)
        db.rollback(txn)
        check = db.begin()
        present = sum(
            1 for k in range(100) if db.fetch(check, "t", "by_id", k) is not None
        )
        db.commit(check)
        assert present == 100
        assert db.verify_indexes() == {}
        assert db.stats.get("btree.undo.logical") > 0

    def test_root_shrinks_back_to_leaf(self):
        db = small_page_db()
        populate(db, range(300))
        txn = db.begin()
        for key in range(300):
            db.delete_by_key(txn, "t", "by_id", key)
        db.commit(txn)
        assert db.stats.get("btree.root_shrinks") >= 1
        root = tree_of(db).fix_page(tree_of(db).root_page_id, db.incarnation)
        db.buffer.unfix(root.page_id)
        assert root.is_leaf
        assert db.verify_indexes() == {}

    def test_interleaved_grow_shrink_cycles(self):
        db = small_page_db()
        for cycle in range(3):
            populate(db, range(150))
            txn = db.begin()
            for key in range(150):
                db.delete_by_key(txn, "t", "by_id", key)
            db.commit(txn)
            assert db.verify_indexes() == {}, f"cycle {cycle}"


class TestSMBitHousekeeping:
    def test_bits_reset_after_smo_by_default(self):
        db = small_page_db()
        populate(db, range(120))
        tree = tree_of(db)
        dirty_bits = []

        def walk(page_id):
            page = tree.fix_page(page_id, tree.ctx.incarnation)
            if page.sm_bit:
                dirty_bits.append(page_id)
            children = list(page.child_ids)
            db.buffer.unfix(page_id)
            for child in children:
                walk(child)

        walk(tree.root_page_id)
        assert dirty_bits == []

    def test_lazy_reset_mode_still_consistent(self):
        db = small_page_db()
        populate(db, range(120))
        # The reset is unlogged, so a crash after an SMO can leave every
        # bit it set behind: plant them on every page of the tree.
        tree = tree_of(db)
        stack = [tree.root_page_id]
        while stack:
            page = tree.fix_page(stack.pop(), db.incarnation)
            page.sm_bit = True
            stack.extend(page.child_ids)
            db.buffer.unfix(page.page_id)
        assert db.verify_indexes() == {}
        # Operations after the SMO reset stale bits lazily and proceed.
        txn = db.begin()
        db.insert(txn, "t", {"id": 5000, "val": "x"})
        db.delete_by_key(txn, "t", "by_id", 5000)
        db.commit(txn)
        assert db.verify_indexes() == {}
