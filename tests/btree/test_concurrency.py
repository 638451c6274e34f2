"""Concurrency-control behaviour across transactions and threads.

Covers the paper's protocol guarantees:

- the uncommitted-delete "wall" and uncommitted-insert tripping point
  (§2.6);
- repeatable read / phantom protection via next-key locking (§2.2,
  §2.4);
- Figure 3: an insert racing an in-progress SMO waits on the tree
  latch instead of landing on the wrong page (staged deterministically
  with pause failpoints);
- randomized multi-thread stress with structural and heap/index
  consistency checks, in both tree-latch modes.
"""

import random
import threading

import pytest

from repro.common.errors import (
    DeadlockError,
    KeyNotFoundError,
    LockTimeoutError,
    UniqueKeyViolationError,
)
from tests.conftest import SpyCondition, build_db, lock_wait_queued, populate

JOIN = 20.0


def make_db(**overrides):
    db = build_db(**overrides)
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    return db


def run_thread(fn):
    worker = threading.Thread(target=fn)
    worker.start()
    return worker


class TestWalls:
    def test_uncommitted_delete_blocks_reader_until_rollback(self):
        db = make_db()
        populate(db, range(0, 100, 10))
        t1 = db.begin()
        db.delete_by_key(t1, "t", "by_id", 50)
        result = {}

        def reader():
            t2 = db.begin()
            result["row"] = db.fetch(t2, "t", "by_id", 50)
            db.commit(t2)

        waits = db.stats.get("lock.waits")
        queued = lock_wait_queued(db)
        worker = run_thread(reader)
        assert queued.wait(JOIN)
        assert "row" not in result
        db.rollback(t1)
        worker.join(timeout=JOIN)
        assert db.stats.get("lock.waits") - waits >= 1  # the reader waited
        assert result["row"] is not None  # the delete was rolled back

    def test_uncommitted_delete_blocks_reader_until_commit(self):
        db = make_db()
        populate(db, range(0, 100, 10))
        t1 = db.begin()
        db.delete_by_key(t1, "t", "by_id", 50)
        result = {}

        def reader():
            t2 = db.begin()
            result["row"] = db.fetch(t2, "t", "by_id", 50)
            db.commit(t2)

        waits = db.stats.get("lock.waits")
        queued = lock_wait_queued(db)
        worker = run_thread(reader)
        assert queued.wait(JOIN)
        assert "row" not in result
        db.commit(t1)
        worker.join(timeout=JOIN)
        assert db.stats.get("lock.waits") - waits >= 1
        assert result["row"] is None  # the delete committed

    def test_uncommitted_delete_blocks_same_value_insert(self):
        """§2.4: in a unique index, insert discovers an uncommitted
        delete of the same value through the next-key lock conflict."""
        db = make_db()
        populate(db, range(0, 100, 10))
        t1 = db.begin()
        db.delete_by_key(t1, "t", "by_id", 50)
        outcome = {}

        def inserter():
            t2 = db.begin()
            try:
                db.insert(t2, "t", {"id": 50, "val": "new"})
                outcome["status"] = "inserted"
                db.commit(t2)
            except UniqueKeyViolationError:
                outcome["status"] = "violation"
                db.rollback(t2)

        waits = db.stats.get("lock.waits")
        queued = lock_wait_queued(db)
        worker = run_thread(inserter)
        assert queued.wait(JOIN)
        assert "status" not in outcome
        db.rollback(t1)  # the old key comes back...
        worker.join(timeout=JOIN)
        assert db.stats.get("lock.waits") - waits >= 1
        assert outcome["status"] == "violation"  # ...so the insert fails

    def test_uncommitted_insert_blocks_reader(self):
        """§2.6: an inserted key itself is the tripping point."""
        db = make_db()
        populate(db, range(0, 100, 10))
        t1 = db.begin()
        db.insert(t1, "t", {"id": 55, "val": "pending"})
        result = {}

        def reader():
            t2 = db.begin()
            result["row"] = db.fetch(t2, "t", "by_id", 55)
            db.commit(t2)

        waits = db.stats.get("lock.waits")
        queued = lock_wait_queued(db)
        worker = run_thread(reader)
        assert queued.wait(JOIN)
        assert "row" not in result
        db.commit(t1)
        worker.join(timeout=JOIN)
        assert db.stats.get("lock.waits") - waits >= 1
        assert result["row"] is not None


class TestRepeatableRead:
    def test_not_found_is_repeatable(self):
        """§2.2: a reader that saw 'not found' blocks any insert of
        that value until it ends — the phantom cannot appear."""
        db = make_db(lock_timeout_seconds=0.6)
        populate(db, range(0, 100, 10))
        t1 = db.begin()
        assert db.fetch(t1, "t", "by_id", 55) is None  # locks next key 60

        t2 = db.begin()
        with pytest.raises(LockTimeoutError):
            db.insert(t2, "t", {"id": 55, "val": "phantom"})
        db.rollback(t2)
        # Re-read under t1: still not found.
        assert db.fetch(t1, "t", "by_id", 55) is None
        db.commit(t1)

    def test_range_scan_blocks_inserts_into_range(self):
        db = make_db(lock_timeout_seconds=0.6)
        populate(db, range(0, 100, 10))
        t1 = db.begin()
        seen = [r["id"] for _, r in db.scan(t1, "t", "by_id", low=20, high=60)]
        t2 = db.begin()
        with pytest.raises(LockTimeoutError):
            db.insert(t2, "t", {"id": 35, "val": "phantom"})
        db.rollback(t2)
        again = [r["id"] for _, r in db.scan(t1, "t", "by_id", low=20, high=60)]
        db.commit(t1)
        assert seen == again

    def test_eof_lock_protects_tail_inserts(self):
        db = make_db(lock_timeout_seconds=0.6)
        populate(db, range(0, 100, 10))
        t1 = db.begin()
        assert db.fetch(t1, "t", "by_id", 500) is None  # EOF lock
        t2 = db.begin()
        with pytest.raises(LockTimeoutError):
            db.insert(t2, "t", {"id": 500, "val": "tail"})
        db.rollback(t2)
        db.commit(t1)

    def test_inserts_outside_locked_range_proceed(self):
        db = make_db()
        populate(db, range(0, 100, 10))
        t1 = db.begin()
        db.fetch(t1, "t", "by_id", 55)  # locks key 60
        t2 = db.begin()
        db.insert(t2, "t", {"id": 5, "val": "fine"})  # next key 10: free
        db.commit(t2)
        db.commit(t1)


class TestFigure3:
    def test_insert_waits_for_inflight_smo(self):
        """Figure 3 staged deterministically: T1's split is paused
        after the leaf-level changes; T2's insert targeting the split
        leaf must wait for the SMO to finish, then land correctly."""
        db = make_db(page_size=768)
        populate(db, range(0, 120, 2))
        paused = db.failpoints.arm_pause("smo.split.after_leaf_level")
        splits_before = db.stats.get("btree.page_splits")
        t1_done = threading.Event()

        def splitter():
            t1 = db.begin()
            key = 1001
            while db.stats.get("btree.page_splits") == splits_before:
                db.insert(t1, "t", {"id": key, "val": "s" * 30})
                key += 2
            db.commit(t1)
            t1_done.set()

        split_thread = run_thread(splitter)
        db.failpoints.wait_until_paused("smo.split.after_leaf_level")

        t2_result = {}

        def inserter():
            t2 = db.begin()
            db.insert(t2, "t", {"id": 1000, "val": "i"})
            t2_result["done"] = True
            db.commit(t2)

        # The SMO holds the X tree latch; the insert parks on it.
        tree_latch = db.latches.tree_latch(db.tables["t"].indexes["by_id"].index_id)
        tree_latch._cond = parked = SpyCondition(tree_latch._lock)  # noqa: SLF001
        latch_waits = db.stats.get("latch.waits")
        insert_thread = run_thread(inserter)
        assert parked.parked.wait(JOIN)
        assert "done" not in t2_result, "insert must wait for the SMO"
        db.failpoints.release("smo.split.after_leaf_level")
        insert_thread.join(timeout=JOIN)
        split_thread.join(timeout=JOIN)
        assert t2_result["done"]
        assert db.stats.get("latch.waits") - latch_waits >= 1
        assert db.verify_indexes() == {}
        check = db.begin()
        assert db.fetch(check, "t", "by_id", 1000) is not None
        db.commit(check)

    def test_fetch_of_a_moved_key_waits_for_inflight_smo(self):
        """Figure 3's race for Fetch: T1's split is paused after the
        leaf-level changes, so the parent still routes the keys that
        moved right to the left leaf.  A Fetch of one of them that is
        not the right page's first key must wait for the SMO and then
        find it, not report it missing."""
        from repro.common.keys import decode_int_key

        db = make_db(page_size=768)
        populate(db, range(0, 120, 2))
        tree = db.tables["t"].indexes["by_id"]
        db.failpoints.arm_pause("smo.split.after_leaf_level")
        splits_before = db.stats.get("btree.page_splits")

        def splitter():
            t1 = db.begin()
            key = 1
            while db.stats.get("btree.page_splits") == splits_before:
                db.insert(t1, "t", {"id": key, "val": "s" * 30})
                key += 2
            db.commit(t1)

        split_thread = run_thread(splitter)
        db.failpoints.wait_until_paused("smo.split.after_leaf_level")
        fetch_result = {}
        try:
            # T1 holds no latch while paused.  The new right page is
            # chained but not yet in the root, which still routes its
            # keys to the left page.
            root = tree.fix_page(tree.root_page_id)
            db.buffer.unfix(root.page_id)
            leaf_id = root.child_ids[0]
            while True:
                leaf = tree.fix_page(leaf_id)
                db.buffer.unfix(leaf_id)
                leaf_id = leaf.next_leaf
                if leaf_id not in root.child_ids:
                    break
            right = tree.fix_page(leaf_id)
            db.buffer.unfix(leaf_id)
            moved = [decode_int_key(key.value) for key in right.keys[1:]]
            target = next(key for key in moved if key % 2 == 0)  # committed

            def fetcher():
                t2 = db.begin()
                fetch_result["row"] = db.fetch(t2, "t", "by_id", target)
                db.commit(t2)

            # The SMO holds the X tree latch; the fetch parks on it.
            tree_latch = db.latches.tree_latch(tree.index_id)
            tree_latch._cond = parked = SpyCondition(tree_latch._lock)  # noqa: SLF001
            fetch_thread = run_thread(fetcher)
            assert parked.parked.wait(JOIN)
            assert "row" not in fetch_result, "fetch must wait for the SMO"
        finally:
            db.failpoints.release("smo.split.after_leaf_level")
        fetch_thread.join(timeout=JOIN)
        split_thread.join(timeout=JOIN)
        assert fetch_result["row"]["id"] == target
        assert db.verify_indexes() == {}

    def test_traverser_waits_at_ambiguous_nonleaf(self):
        """A traversal hitting the split leaf's *parent* mid-SMO (key
        beyond the stored high keys, SM_Bit on) waits on the tree
        latch; staged with a pause before the propagation completes."""
        db = make_db(page_size=768)
        populate(db, range(0, 120, 2))
        db.failpoints.arm_pause("smo.split.after_propagation")
        splits_before = db.stats.get("btree.page_splits")

        def splitter():
            t1 = db.begin()
            key = 2001
            while db.stats.get("btree.page_splits") == splits_before:
                db.insert(t1, "t", {"id": key, "val": "s" * 30})
                key += 2
            db.commit(t1)

        split_thread = run_thread(splitter)
        db.failpoints.wait_until_paused("smo.split.after_propagation")

        fetch_result = {}

        def fetcher():
            t2 = db.begin()
            fetch_result["row"] = db.fetch(t2, "t", "by_id", 0)
            db.commit(t2)

        fetch_thread = run_thread(fetcher)
        fetch_thread.join(timeout=20)
        # A fetch of an unaffected key proceeds without the tree latch.
        assert fetch_result["row"] is not None
        db.failpoints.release("smo.split.after_propagation")
        split_thread.join(timeout=20)
        assert db.verify_indexes() == {}


class TestStress:
    @pytest.mark.parametrize("latch_mode", ["latch", "lock"])
    def test_mixed_workload_consistency(self, latch_mode):
        db = make_db(page_size=1024, tree_latch_mode=latch_mode)
        populate(db, range(0, 1000, 2))
        errors = []

        def worker(worker_id):
            rng = random.Random(worker_id)
            for _ in range(60):
                txn = db.begin()
                try:
                    for _ in range(rng.randint(1, 4)):
                        key = rng.randrange(1000)
                        roll = rng.random()
                        db.savepoint(txn, "stmt")
                        try:
                            if roll < 0.3:
                                db.fetch(txn, "t", "by_id", key)
                            elif roll < 0.45:
                                list(db.scan(txn, "t", "by_id", low=key, high=key + 6))
                            elif roll < 0.75:
                                db.insert(txn, "t", {"id": key, "val": "w"})
                            else:
                                db.delete_by_key(txn, "t", "by_id", key)
                        except (UniqueKeyViolationError, KeyNotFoundError):
                            db.rollback_to_savepoint(txn, "stmt")
                    if rng.random() < 0.25:
                        db.rollback(txn)
                    else:
                        db.commit(txn)
                except (DeadlockError, LockTimeoutError):
                    try:
                        db.rollback(txn)
                    except Exception as exc:  # pragma: no cover
                        errors.append(repr(exc))
                except Exception as exc:  # pragma: no cover
                    errors.append(repr(exc))
                    try:
                        db.rollback(txn)
                    except Exception:
                        pass

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert errors == []
        assert db.verify_indexes() == {}
        # Heap and index agree exactly.
        txn = db.begin()
        heap_keys = sorted(
            db.tables["t"].fetch_row(txn, rid, lock=False)["id"]
            for rid in db.tables["t"].heap.scan_rids()
        )
        index_keys = sorted(r["id"] for _, r in db.scan(txn, "t", "by_id"))
        db.commit(txn)
        assert heap_keys == index_keys

    def test_rolling_back_transactions_never_deadlock(self):
        """§4: rollbacks request no locks, so forcing many concurrent
        rollbacks can never deadlock."""
        db = make_db(page_size=1024)
        populate(db, range(0, 400, 2))
        rollback_failures = []

        def worker(worker_id):
            rng = random.Random(worker_id)
            for _ in range(40):
                txn = db.begin()
                try:
                    for _ in range(3):
                        key = rng.randrange(400)
                        db.savepoint(txn, "stmt")
                        try:
                            if rng.random() < 0.5:
                                db.insert(txn, "t", {"id": key, "val": "w"})
                            else:
                                db.delete_by_key(txn, "t", "by_id", key)
                        except (UniqueKeyViolationError, KeyNotFoundError):
                            db.rollback_to_savepoint(txn, "stmt")
                except (DeadlockError, LockTimeoutError):
                    pass
                try:
                    db.rollback(txn)  # every transaction rolls back
                except Exception as exc:
                    rollback_failures.append(repr(exc))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert rollback_failures == []
        assert db.verify_indexes() == {}
        # All work was rolled back: exactly the initial keys remain.
        txn = db.begin()
        keys = [r["id"] for _, r in db.scan(txn, "t", "by_id")]
        db.commit(txn)
        assert keys == list(range(0, 400, 2))
