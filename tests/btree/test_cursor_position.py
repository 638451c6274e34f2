"""Fetch and Fetch Next carry the returned key's position into the
cursor instead of bisecting for it again: after every call,
``cursor.pos`` must be exactly where a fresh ``find_key`` on the
cursor's leaf puts the returned key — on the same leaf, on the next
leaf (position 0), after a split between calls, and up to EOF."""

from repro.btree.fetch import Cursor, index_fetch, index_fetch_next
from repro.common.keys import decode_int_key, encode_key
from tests.conftest import build_db, populate


def small_db():
    db = build_db(page_size=768)
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    populate(db, range(0, 120, 2))
    return db


def tree_of(db):
    return db.tables["t"].indexes["by_id"]


def leaves(tree):
    """Leaf page ids in chain order, with their key values."""
    out = []
    page = tree.fix_page(tree.root_page_id, tree.ctx.incarnation)
    while not page.is_leaf:
        child = page.child_ids[0]
        tree.ctx.buffer.unfix(page.page_id)
        page = tree.fix_page(child, tree.ctx.incarnation)
    while True:
        out.append((page.page_id, [decode_int_key(k.value) for k in page.keys]))
        next_id = page.next_leaf
        tree.ctx.buffer.unfix(page.page_id)
        if next_id == 0:
            return out
        page = tree.fix_page(next_id, tree.ctx.incarnation)


def assert_carried(tree, cursor, result):
    """The cursor names the returned key, at the position and page LSN
    a re-bisect of its leaf finds now."""
    assert cursor.current_key == result.key
    page = tree.fix_page(cursor.leaf_id, tree.ctx.incarnation)
    try:
        pos, exact = page.find_key(result.key)
        assert exact
        assert cursor.pos == pos
        assert cursor.page_lsn == page.page_lsn
    finally:
        tree.ctx.buffer.unfix(cursor.leaf_id)


def test_same_leaf_successor():
    db = small_db()
    tree = tree_of(db)
    txn = db.begin()
    cursor = Cursor(tree)
    result = index_fetch(tree, txn, encode_key(11), ">=", cursor=cursor)
    assert decode_int_key(result.key.value) == 12
    assert_carried(tree, cursor, result)
    fast = db.stats.get("btree.cursor_fast_path")
    result = index_fetch_next(tree, txn, cursor)
    assert decode_int_key(result.key.value) == 14
    assert db.stats.get("btree.cursor_fast_path") == fast + 1
    assert_carried(tree, cursor, result)
    db.commit(txn)


def test_successor_on_the_next_leaf_is_position_zero():
    db = small_db()
    tree = tree_of(db)
    (first_id, first_keys), (second_id, second_keys) = leaves(tree)[:2]
    txn = db.begin()
    cursor = Cursor(tree)
    # Fetch Next from the last key of the first leaf...
    result = index_fetch(tree, txn, encode_key(first_keys[-1]), "=", cursor=cursor)
    assert cursor.leaf_id == first_id
    assert cursor.pos == len(first_keys) - 1
    assert_carried(tree, cursor, result)
    result = index_fetch_next(tree, txn, cursor)
    assert decode_int_key(result.key.value) == second_keys[0]
    assert (cursor.leaf_id, cursor.pos) == (second_id, 0)
    assert_carried(tree, cursor, result)
    # ...and a Fetch whose search lands past the end of the first leaf.
    cursor = Cursor(tree)
    result = index_fetch(tree, txn, encode_key(first_keys[-1] + 1), ">=", cursor=cursor)
    assert decode_int_key(result.key.value) == second_keys[0]
    assert (cursor.leaf_id, cursor.pos) == (second_id, 0)
    assert_carried(tree, cursor, result)
    db.commit(txn)


def test_reposition_after_a_split_between_calls():
    db = small_db()
    tree = tree_of(db)
    txn = db.begin()
    cursor = Cursor(tree)
    result = index_fetch(tree, txn, encode_key(40), "=", cursor=cursor)
    assert_carried(tree, cursor, result)
    noted_leaf = cursor.leaf_id
    splits = db.stats.get("btree.page_splits")
    # Odd keys land right after the cursor and split its leaf.
    key = 41
    while db.stats.get("btree.page_splits") == splits:
        db.insert(txn, "t", {"id": key, "val": "x" * 20})
        key += 2
    repositions = db.stats.get("btree.cursor_repositions")
    result = index_fetch_next(tree, txn, cursor)
    assert db.stats.get("btree.cursor_repositions") == repositions + 1
    assert decode_int_key(result.key.value) == 41
    assert_carried(tree, cursor, result)
    assert noted_leaf in [page_id for page_id, _ in leaves(tree)]
    # The carried position drives the next fast-path step correctly.
    result = index_fetch_next(tree, txn, cursor)
    assert decode_int_key(result.key.value) == 42
    assert_carried(tree, cursor, result)
    db.commit(txn)


def test_eof():
    db = small_db()
    tree = tree_of(db)
    last_id, last_keys = leaves(tree)[-1]
    txn = db.begin()
    cursor = Cursor(tree)
    result = index_fetch(tree, txn, encode_key(last_keys[-1]), "=", cursor=cursor)
    assert (cursor.leaf_id, cursor.pos) == (last_id, len(last_keys) - 1)
    assert_carried(tree, cursor, result)
    result = index_fetch_next(tree, txn, cursor)
    assert result.eof and result.key is None
    assert cursor.at_eof
    assert index_fetch_next(tree, txn, cursor).eof
    # A Fetch past every key is EOF too, and leaves the cursor there.
    cursor = Cursor(tree)
    result = index_fetch(tree, txn, encode_key(10_000), ">=", cursor=cursor)
    assert result.eof and cursor.at_eof and cursor.current_key is None
    db.commit(txn)
