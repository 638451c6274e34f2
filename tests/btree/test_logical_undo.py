"""Logical undo: Figure 1 and the four reasons of §3.

Page-oriented undo is the fast path; these tests construct each
situation that *forces* a tree traversal during undo and verify both
the outcome and that the logical path was actually taken.
"""

import pytest

from repro.wal.records import RecordKind
from tests.conftest import build_db, populate


def small_page_db(**overrides):
    db = build_db(page_size=768, **overrides)
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    return db


def undo_counts(db):
    return (
        db.stats.get("btree.undo.page_oriented"),
        db.stats.get("btree.undo.logical"),
    )


class TestFigure1:
    def test_intervening_split_forces_logical_undo(self):
        """T1 inserts K8 into P1; T2's inserts split P1, moving K8 to
        P2; T1's rollback must find and delete K8 on P2 via the root,
        and the CLR names P2, not P1."""
        db = small_page_db()
        populate(db, range(0, 40, 2))
        t1 = db.begin()
        db.insert(t1, "t", {"id": 21, "val": "K8"})
        k8_record = next(
            r
            for r in db.log.records()
            if r.txn_id == t1.txn_id and r.op == "insert_key"
        )
        original_page = k8_record.page_id

        # T2 splits the page by stuffing neighbours around K8.
        t2 = db.begin()
        for i in range(100, 160):
            db.insert(t2, "t", {"id": i, "val": "filler" * 4})
        db.commit(t2)
        assert db.stats.get("btree.page_splits") > 0

        before_po, before_lo = undo_counts(db)
        db.rollback(t1)
        po, lo = undo_counts(db)

        check = db.begin()
        assert db.fetch(check, "t", "by_id", 21) is None
        db.commit(check)
        assert db.verify_indexes() == {}
        clr = next(
            r
            for r in db.log.records()
            if r.txn_id == t1.txn_id
            and r.kind is RecordKind.CLR
            and r.op == "delete_key_c"
        )
        if clr.page_id != original_page:
            # The key moved: undo was logical (Figure 1's exact shape).
            assert lo - before_lo >= 1
        else:
            # The split left K8 in place; undo stayed page-oriented.
            assert po - before_po >= 1

    def test_page_oriented_undo_when_nothing_moved(self):
        db = small_page_db()
        populate(db, range(0, 40, 2))
        t1 = db.begin()
        db.insert(t1, "t", {"id": 21, "val": "x"})
        before_po, before_lo = undo_counts(db)
        db.rollback(t1)
        po, lo = undo_counts(db)
        assert po - before_po == 1
        assert lo == before_lo


class TestReason1SpaceConsumed:
    def test_undo_of_delete_splits_when_space_was_consumed(self):
        """§3 reason 1: the space freed by the delete was consumed, so
        the undo-time re-insert needs a page split — logged with
        regular records inside the rollback."""
        db = small_page_db()
        # One leaf nearly full of wide rows.
        txn = db.begin()
        for i in range(0, 12):
            db.insert(txn, "t", {"id": i, "val": "A" * 40})
        db.commit(txn)

        t1 = db.begin()
        db.delete_by_key(t1, "t", "by_id", 5)

        # T2 consumes the freed space (and more) and commits.
        t2 = db.begin()
        for i in range(100, 104):
            db.insert(t2, "t", {"id": i, "val": "B" * 40})
        db.commit(t2)

        splits_before = db.stats.get("btree.page_splits")
        db.rollback(t1)
        check = db.begin()
        assert db.fetch(check, "t", "by_id", 5) is not None
        for i in range(100, 104):
            assert db.fetch(check, "t", "by_id", i) is not None
        db.commit(check)
        assert db.verify_indexes() == {}
        # The rollback either split (space was genuinely exhausted) or
        # fit the key back; in the exhausted case the SMO's records are
        # regular (undoable) updates, not CLRs.
        if db.stats.get("btree.page_splits") > splits_before:
            smo_records = [
                r
                for r in db.log.records()
                if r.txn_id == t1.txn_id and r.op in ("page_format", "leaf_shrink")
            ]
            assert smo_records
            assert all(r.kind is RecordKind.UPDATE for r in smo_records)


class TestReason2PageGone:
    def test_undo_of_delete_after_page_delete(self):
        """§3 reason 2: the original page is no longer a leaf of the
        tree (an intervening page delete); undo must go through the
        root.

        Note: a *foreign* transaction cannot empty the page while the
        deleter is active — its own commit-duration next-key X lock
        forbids exactly that (the §2.6 'wall').  The reachable shape is
        self-inflicted: one transaction empties the page (triggering
        the page delete) and then rolls back; the undos of the earlier
        key deletes find their page freed and go logical."""
        db = small_page_db()
        populate(db, range(60))
        tree = db.tables["t"].indexes["by_id"]
        from repro.common.keys import decode_int_key

        page = tree.fix_page(tree.root_page_id, tree.ctx.incarnation)
        while not page.is_leaf:
            child = page.child_ids[-1]
            db.buffer.unfix(page.page_id)
            page = tree.fix_page(child, tree.ctx.incarnation)
        victims = [decode_int_key(k.value) for k in page.keys]
        freed_page = page.page_id
        db.buffer.unfix(page.page_id)

        before_deletes = db.stats.get("btree.page_deletes")
        t1 = db.begin()
        for key in victims:
            db.delete_by_key(t1, "t", "by_id", key)
        assert db.stats.get("btree.page_deletes") > before_deletes

        before_po, before_lo = undo_counts(db)
        db.rollback(t1)
        _, lo = undo_counts(db)
        assert lo > before_lo  # page gone → traversal required
        check = db.begin()
        for key in victims:
            assert db.fetch(check, "t", "by_id", key) is not None
        db.commit(check)
        assert db.verify_indexes() == {}
        # The freed page stayed freed; keys were re-inserted elsewhere.
        reloaded = tree.fix_page(freed_page, tree.ctx.incarnation)
        db.buffer.unfix(freed_page)
        assert reloaded.index_id != tree.index_id or not reloaded.keys

    def test_foreign_emptying_is_blocked_by_the_wall(self):
        """The converse property: another transaction CANNOT empty the
        page under an uncommitted delete — the deleter's next-key lock
        blocks it (§2.6)."""
        from repro.common.errors import LockTimeoutError

        db = small_page_db(lock_timeout_seconds=0.5)
        populate(db, range(60))
        tree = db.tables["t"].indexes["by_id"]
        from repro.common.keys import decode_int_key

        page = tree.fix_page(tree.root_page_id, tree.ctx.incarnation)
        while not page.is_leaf:
            child = page.child_ids[-1]
            db.buffer.unfix(page.page_id)
            page = tree.fix_page(child, tree.ctx.incarnation)
        victims = [decode_int_key(k.value) for k in page.keys]
        db.buffer.unfix(page.page_id)

        t1 = db.begin()
        db.delete_by_key(t1, "t", "by_id", victims[0])

        import threading

        blocked = []

        def foreign_deleter():
            t2 = db.begin()
            try:
                for key in victims[1:]:
                    db.delete_by_key(t2, "t", "by_id", key)
            except LockTimeoutError:
                blocked.append(True)
                db.rollback(t2)
            else:  # pragma: no cover - would be a protocol bug
                db.commit(t2)

        worker = threading.Thread(target=foreign_deleter)
        worker.start()
        worker.join(timeout=30)
        db.rollback(t1)
        assert blocked == [True]
        assert db.verify_indexes() == {}


class TestReason3NotBound:
    def test_boundary_key_delete_undo(self):
        """§3 reason 3: the key to put back is not bound on the page
        (it was the page's smallest/largest); undo goes logical."""
        db = small_page_db()
        populate(db, range(60))
        tree = db.tables["t"].indexes["by_id"]
        from repro.common.keys import decode_int_key

        keys = tree.all_keys()
        # Pick the boundary key of some middle leaf: walk pages.
        page = tree.fix_page(tree.root_page_id, tree.ctx.incarnation)
        while not page.is_leaf:
            child = page.child_ids[0]
            db.buffer.unfix(page.page_id)
            page = tree.fix_page(child, tree.ctx.incarnation)
        boundary = decode_int_key(page.keys[-1].value)  # largest on page
        db.buffer.unfix(page.page_id)

        before_po, before_lo = undo_counts(db)
        t1 = db.begin()
        db.delete_by_key(t1, "t", "by_id", boundary)
        db.rollback(t1)
        po, lo = undo_counts(db)
        assert lo - before_lo >= 1  # not bound → logical
        check = db.begin()
        assert db.fetch(check, "t", "by_id", boundary) is not None
        db.commit(check)
        assert db.verify_indexes() == {}


class TestReason4WouldEmpty:
    def test_undo_of_insert_that_is_last_key_triggers_page_delete(self):
        """§3 reason 4: undoing the insert would empty the page, so the
        undo performs a page-delete SMO (logged with regular records).

        With record-granularity data-only locking this state is
        unreachable through committed foreign transactions (the
        inserted key's own record lock is the next-key lock any
        emptying delete would need).  The paper keeps the case for
        coarser granularities and escalation; we emulate those by
        driving the foreign deletes through the index manager with
        locking suppressed — precisely what a page-level locker that
        already holds the page lock would do."""
        db = small_page_db()
        populate(db, range(60))
        tree = db.tables["t"].indexes["by_id"]
        from repro.btree.delete import index_delete
        from repro.common.keys import decode_int_key

        page = tree.fix_page(tree.root_page_id, tree.ctx.incarnation)
        while not page.is_leaf:
            child = page.child_ids[-1]
            db.buffer.unfix(page.page_id)
            page = tree.fix_page(child, tree.ctx.incarnation)
        residents = list(page.keys)
        db.buffer.unfix(page.page_id)

        # T1 inserts a new rightmost key onto that leaf.
        t1 = db.begin()
        db.insert(t1, "t", {"id": 1000, "val": "x"})

        # "T2": emulated coarse-granularity deleter (no record locks).
        t2 = db.begin()
        t2.in_rollback = True  # suppress lock acquisition only
        for key in residents:
            index_delete(tree, t2, key)
        t2.in_rollback = False
        db.commit(t2)

        deletes_before = db.stats.get("btree.page_deletes")
        before_po, before_lo = undo_counts(db)
        db.rollback(t1)
        assert db.stats.get("btree.page_deletes") > deletes_before
        _, lo = undo_counts(db)
        assert lo > before_lo
        check = db.begin()
        assert db.fetch(check, "t", "by_id", 1000) is None
        db.commit(check)
        assert db.verify_indexes() == {}
