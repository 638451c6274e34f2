"""Cursor (Fetch Next) edge cases: pages vanishing, splitting, or
churning underneath an open scan position."""

from repro.common.keys import decode_int_key
from tests.conftest import build_db, populate

from repro.btree.fetch import Cursor, index_fetch, index_fetch_next
from repro.common.keys import encode_key


def small_db(**overrides):
    db = build_db(page_size=768, **overrides)
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    return db


def open_cursor(db, at):
    tree = db.tables["t"].indexes["by_id"]
    txn = db.begin()
    cursor = Cursor(tree)
    result = index_fetch(tree, txn, encode_key(at), "=", cursor=cursor)
    assert result.found
    return tree, txn, cursor


class TestCursorSurvivesChurn:
    def test_cursor_page_deleted_underneath(self):
        """The page holding the cursor position gets emptied and
        deleted (by the same transaction); Fetch Next must reposition
        by key, not chase the dead page."""
        db = small_db()
        populate(db, range(60))
        tree, txn, cursor = open_cursor(db, 0)
        # Delete a swath ahead, enough to free at least one leaf.
        for key in range(1, 45):
            db.delete_by_key(txn, "t", "by_id", key)
        assert db.stats.get("btree.page_deletes") >= 1
        result = index_fetch_next(tree, txn, cursor)
        assert decode_int_key(result.key.value) == 45
        db.commit(txn)

    def test_cursor_own_page_freed(self):
        """Even the cursor's own leaf can be freed (its keys deleted);
        repositioning falls back to a fresh traversal."""
        db = small_db()
        populate(db, range(60))
        tree = db.tables["t"].indexes["by_id"]
        # Position on a key of the *second* leaf so the whole leaf
        # (including the current key) can be deleted.
        page = tree.fix_page(tree.root_page_id, tree.ctx.incarnation)
        while not page.is_leaf:
            child = page.child_ids[0]
            db.buffer.unfix(page.page_id)
            page = tree.fix_page(child, tree.ctx.incarnation)
        second_leaf_id = page.next_leaf
        db.buffer.unfix(page.page_id)
        second = tree.fix_page(second_leaf_id, tree.ctx.incarnation)
        victims = [decode_int_key(k.value) for k in second.keys]
        db.buffer.unfix(second_leaf_id)

        txn = db.begin()
        cursor = Cursor(tree)
        index_fetch(tree, txn, encode_key(victims[0]), "=", cursor=cursor)
        for key in victims:
            db.delete_by_key(txn, "t", "by_id", key)
        result = index_fetch_next(tree, txn, cursor)
        db.commit(txn)
        assert result.found
        assert decode_int_key(result.key.value) == victims[-1] + 1
        assert db.stats.get("btree.cursor_repositions") >= 1

    def test_cursor_across_split(self):
        """A split between Fetch Next calls moves upcoming keys to a
        new page; the scan must not skip or repeat keys."""
        db = small_db()
        populate(db, range(0, 40, 2))
        tree, txn, cursor = open_cursor(db, 0)
        seen = [0]
        # Force splits by stuffing odd keys ahead of the cursor.
        filler = db.begin()
        for key in range(21, 39, 2):
            db.insert(filler, "t", {"id": key, "val": "f" * 30})
        db.commit(filler)
        while True:
            result = index_fetch_next(tree, txn, cursor)
            if not result.found:
                break
            seen.append(decode_int_key(result.key.value))
        db.commit(txn)
        expected = sorted(set(range(0, 40, 2)) | set(range(21, 39, 2)))
        assert seen == expected

    def test_interleaved_cursor_and_inserts_behind(self):
        """Inserts *behind* the cursor must not re-appear in the scan
        (no Halloween-style revisiting)."""
        db = small_db()
        populate(db, range(10, 30))
        tree, txn, cursor = open_cursor(db, 20)
        inserter = db.begin()
        for key in range(0, 9):
            db.insert(inserter, "t", {"id": key, "val": "behind"})
        db.commit(inserter)
        seen = []
        while True:
            result = index_fetch_next(tree, txn, cursor)
            if not result.found:
                break
            seen.append(decode_int_key(result.key.value))
        db.commit(txn)
        assert seen == list(range(21, 30))

    def test_two_cursors_same_txn(self):
        db = small_db()
        populate(db, range(20))
        tree = db.tables["t"].indexes["by_id"]
        txn = db.begin()
        c1, c2 = Cursor(tree), Cursor(tree)
        index_fetch(tree, txn, encode_key(0), "=", cursor=c1)
        index_fetch(tree, txn, encode_key(10), "=", cursor=c2)
        a = index_fetch_next(tree, txn, c1)
        b = index_fetch_next(tree, txn, c2)
        db.commit(txn)
        assert decode_int_key(a.key.value) == 1
        assert decode_int_key(b.key.value) == 11
