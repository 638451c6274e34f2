"""Edge surfaces: empty trees, single keys, EOF, the probe path."""

import pytest

from repro.common.errors import KeyNotFoundError, UniqueKeyViolationError
from repro.common.keys import decode_int_key
from tests.conftest import build_db, populate


def make_db(**overrides):
    db = build_db(**overrides)
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    return db


class TestEmptyTree:
    def test_fetch_on_empty(self):
        db = make_db()
        txn = db.begin()
        assert db.fetch(txn, "t", "by_id", 1) is None
        db.commit(txn)

    def test_scan_on_empty(self):
        db = make_db()
        txn = db.begin()
        assert list(db.scan(txn, "t", "by_id")) == []
        db.commit(txn)

    def test_delete_on_empty(self):
        db = make_db()
        txn = db.begin()
        with pytest.raises(KeyNotFoundError):
            db.delete_by_key(txn, "t", "by_id", 1)
        db.rollback(txn)

    def test_empty_not_found_locks_eof(self):
        """The miss on an empty tree locks the EOF name: no insert can
        sneak in before the reader ends (RR on an empty table)."""
        from repro.common.errors import LockTimeoutError

        db = make_db(lock_timeout_seconds=0.5)
        t1 = db.begin()
        assert db.fetch(t1, "t", "by_id", 1) is None
        t2 = db.begin()
        with pytest.raises(LockTimeoutError):
            db.insert(t2, "t", {"id": 1, "val": "phantom"})
        db.rollback(t2)
        db.commit(t1)

    def test_insert_into_empty_then_empty_again(self):
        db = make_db()
        for _ in range(3):
            txn = db.begin()
            db.insert(txn, "t", {"id": 1, "val": "v"})
            db.commit(txn)
            txn = db.begin()
            db.delete_by_key(txn, "t", "by_id", 1)
            db.commit(txn)
        assert db.verify_indexes() == {}


class TestSingleKey:
    def test_roundtrip(self):
        db = make_db()
        populate(db, [42])
        txn = db.begin()
        assert db.fetch(txn, "t", "by_id", 42) is not None
        assert db.fetch(txn, "t", "by_id", 41) is None
        assert db.fetch(txn, "t", "by_id", 43) is None
        db.commit(txn)

    def test_delete_last_key_of_root_leaf(self):
        db = make_db()
        populate(db, [42])
        txn = db.begin()
        db.delete_by_key(txn, "t", "by_id", 42)
        db.commit(txn)
        # The root may legitimately be empty; no page delete fires.
        assert db.stats.get("btree.page_deletes") == 0
        assert db.verify_indexes() == {}

    def test_rollback_of_only_key(self):
        db = make_db()
        txn = db.begin()
        db.insert(txn, "t", {"id": 7, "val": "v"})
        db.rollback(txn)
        check = db.begin()
        assert db.fetch(check, "t", "by_id", 7) is None
        db.commit(check)


class TestEOFBoundary:
    def test_fetch_beyond_all_keys(self):
        db = make_db()
        populate(db, range(10))
        txn = db.begin()
        assert db.fetch(txn, "t", "by_id", 99) is None
        db.commit(txn)

    def test_insert_new_maximum(self):
        """Inserting a new largest key takes the instant X EOF lock."""
        db = make_db()
        populate(db, range(10))
        db.stats.enable_lock_audit()
        txn = db.begin()
        db.insert(txn, "t", {"id": 1_000, "val": "max"})
        db.commit(txn)
        eof_entries = [
            e for e in db.stats.lock_audit() if e.name[0] == "eof" and e.mode == "X"
        ]
        assert eof_entries and eof_entries[0].duration == "instant"

    def test_delete_maximum_key(self):
        db = make_db()
        populate(db, range(10))
        txn = db.begin()
        db.delete_by_key(txn, "t", "by_id", 9)  # next key = EOF, commit X
        db.commit(txn)
        check = db.begin()
        assert db.fetch(check, "t", "by_id", 9) is None
        db.commit(check)

    def test_scan_to_eof_then_reopen(self):
        db = make_db()
        populate(db, range(6))
        txn = db.begin()
        first = [r["id"] for _, r in db.scan(txn, "t", "by_id")]
        second = [r["id"] for _, r in db.scan(txn, "t", "by_id")]
        db.commit(txn)
        assert first == second == list(range(6))


class TestUniqueProbePath:
    def test_insert_at_leaf_boundary_takes_probe(self):
        """An insert landing at position 0 of a non-leftmost leaf cannot
        rule out an equal-value key at the end of the previous leaf and
        must take the locked probe (§2.4 applied across a boundary)."""
        db = make_db(page_size=768)
        populate(db, range(0, 200, 2))
        tree = db.tables["t"].indexes["by_id"]
        # Find the second leaf and open a gap at its head.
        root = tree.fix_page(tree.root_page_id, tree.ctx.incarnation)
        second_leaf_id = root.child_ids[1]
        db.buffer.unfix(tree.root_page_id)
        leaf = tree.fix_page(second_leaf_id, tree.ctx.incarnation)
        head = decode_int_key(leaf.keys[0].value)
        db.buffer.unfix(second_leaf_id)
        txn = db.begin()
        db.delete_by_key(txn, "t", "by_id", head)
        db.commit(txn)

        probes_before = db.stats.get("btree.unique_probes")
        txn = db.begin()
        db.insert(txn, "t", {"id": head + 1, "val": "boundary"})
        db.commit(txn)
        assert db.stats.get("btree.unique_probes") > probes_before
        check = db.begin()
        assert db.fetch(check, "t", "by_id", head + 1) is not None
        db.commit(check)
        assert db.verify_indexes() == {}

    def test_probe_detects_duplicate_on_previous_leaf(self):
        """If the equal-value key really does sit at the end of the
        previous leaf, the probe reports the violation."""
        db = make_db(page_size=768)
        populate(db, range(0, 200, 2))
        tree = db.tables["t"].indexes["by_id"]
        root = tree.fix_page(tree.root_page_id, tree.ctx.incarnation)
        second_leaf_id = root.child_ids[1]
        db.buffer.unfix(tree.root_page_id)
        leaf = tree.fix_page(second_leaf_id, tree.ctx.incarnation)
        head = decode_int_key(leaf.keys[0].value)
        db.buffer.unfix(second_leaf_id)
        txn = db.begin()
        with pytest.raises(UniqueKeyViolationError):
            db.insert(txn, "t", {"id": head, "val": "dup"})
        db.rollback(txn)
