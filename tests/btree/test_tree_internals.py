"""White-box tests of traversal, split mechanics, and structure checks."""

import pytest

from repro.btree.node import IndexPage
from repro.btree.smo import _split_point, freed_payload
from repro.common.errors import TreeInconsistentError
from repro.common.keys import decode_int_key
from repro.common.rid import RID, IndexKey
from tests.conftest import build_db, populate


def key(value: int, rid: int = 0, width: int = 0) -> IndexKey:
    raw = b"%08d" % value + b"p" * width
    return IndexKey(raw, RID(1, rid))


class TestSplitPoint:
    def test_even_keys_split_in_middle(self):
        page = IndexPage(1, 1, 0)
        for v in range(10):
            page.insert_key(key(v))
        assert _split_point(page) == 5

    def test_size_weighted_split(self):
        """One huge key early on pulls the split point left of the
        count-median: the split balances bytes, not key counts."""
        page = IndexPage(1, 1, 0)
        page.insert_key(key(0, width=400))
        for v in range(1, 10):
            page.insert_key(key(v))
        assert _split_point(page) < 5

    def test_never_degenerate(self):
        page = IndexPage(1, 1, 0)
        page.insert_key(key(0, width=500))
        page.insert_key(key(1))
        assert _split_point(page) == 1  # both sides nonempty

    def test_nonleaf_split_point(self):
        page = IndexPage(1, 1, 1)
        page.child_ids = list(range(10, 16))
        page.high_keys = [key(v) for v in range(5)] + [None]
        point = _split_point(page)
        assert 1 <= point <= 5


class TestFreedPayload:
    def test_freed_pages_are_inert(self):
        payload = freed_payload(42)
        page = IndexPage.from_payload(42, payload)
        assert page.index_id == 0
        assert page.is_leaf and not page.keys
        assert page.next_leaf == 0 and page.prev_leaf == 0


class TestTraversalBehaviour:
    def test_traversal_counts_pages(self):
        db = build_db(page_size=768)
        db.create_table("t")
        db.create_index("t", "by_id", column="id", unique=True)
        populate(db, range(200))
        before = db.stats.get("btree.pages_visited")
        txn = db.begin()
        db.fetch(txn, "t", "by_id", 100)
        db.commit(txn)
        # Multi-level tree: at least root→leaf hops were counted.
        assert db.stats.get("btree.pages_visited") > before

    def test_inconsistency_detector_fires_on_broken_tree(self):
        """If the tree is genuinely broken (empty reachable nonleaf),
        traversal gives up with TreeInconsistentError instead of
        spinning forever."""
        db = build_db(page_size=768, latch_timeout_seconds=2.0)
        db.create_table("t")
        db.create_index("t", "by_id", column="id", unique=True)
        populate(db, range(120))
        tree = db.tables["t"].indexes["by_id"]
        # Vandalize: empty the root's entry list behind the system's back.
        root = tree.fix_page(tree.root_page_id, tree.ctx.incarnation)
        root.child_ids = []
        root.high_keys = []
        db.buffer.unfix(tree.root_page_id)
        txn = db.begin()
        with pytest.raises(TreeInconsistentError):
            db.fetch(txn, "t", "by_id", 5)
        db.rollback(txn)

    def test_check_structure_detects_misplaced_key(self):
        db = build_db(page_size=768)
        db.create_table("t")
        db.create_index("t", "by_id", column="id", unique=True)
        populate(db, range(120))
        tree = db.tables["t"].indexes["by_id"]
        # Plant a key far above the first leaf's bound.
        root = tree.fix_page(tree.root_page_id, tree.ctx.incarnation)
        first_leaf_id = root.child_ids[0]
        db.buffer.unfix(tree.root_page_id)
        leaf = tree.fix_page(first_leaf_id, tree.ctx.incarnation)
        leaf.keys.append(tree.make_key(10**6, RID(9, 9)))
        db.buffer.unfix(first_leaf_id)
        problems = tree.check_structure()
        assert any("above bound" in p for p in problems)

    def test_check_structure_detects_broken_chain(self):
        db = build_db(page_size=768)
        db.create_table("t")
        db.create_index("t", "by_id", column="id", unique=True)
        populate(db, range(120))
        tree = db.tables["t"].indexes["by_id"]
        root = tree.fix_page(tree.root_page_id, tree.ctx.incarnation)
        first_leaf_id = root.child_ids[0]
        db.buffer.unfix(tree.root_page_id)
        leaf = tree.fix_page(first_leaf_id, tree.ctx.incarnation)
        leaf.next_leaf = 0  # sever the chain
        db.buffer.unfix(first_leaf_id)
        problems = tree.check_structure()
        assert any("chain" in p for p in problems)

    def test_check_structure_detects_empty_reachable_leaf(self):
        db = build_db(page_size=768)
        db.create_table("t")
        db.create_index("t", "by_id", column="id", unique=True)
        populate(db, range(120))
        tree = db.tables["t"].indexes["by_id"]
        root = tree.fix_page(tree.root_page_id, tree.ctx.incarnation)
        first_leaf_id = root.child_ids[0]
        db.buffer.unfix(tree.root_page_id)
        leaf = tree.fix_page(first_leaf_id, tree.ctx.incarnation)
        leaf.keys = []
        leaf.sm_bit = False
        db.buffer.unfix(first_leaf_id)
        problems = tree.check_structure()
        assert any("no-empty-page" in p for p in problems)


class TestHighKeyMaintenance:
    """Separator invariants after real split/delete traffic."""

    def test_high_keys_bound_their_subtrees(self):
        db = build_db(page_size=768)
        db.create_table("t")
        db.create_index("t", "by_id", column="id", unique=True)
        populate(db, range(500))
        txn = db.begin()
        for k in range(100, 400, 3):
            db.delete_by_key(txn, "t", "by_id", k)
        db.commit(txn)
        tree = db.tables["t"].indexes["by_id"]
        assert tree.check_structure() == []

        def verify(page_id):
            page = tree.fix_page(page_id, tree.ctx.incarnation)
            try:
                if page.is_leaf:
                    return
                assert page.high_keys[-1] is None
                highs = [h for h in page.high_keys if h is not None]
                assert highs == sorted(highs)
                for child_id, high in zip(page.child_ids, page.high_keys):
                    child = tree.fix_page(child_id, tree.ctx.incarnation)
                    try:
                        if child.is_leaf and child.keys and high is not None:
                            assert child.keys[-1] < high
                    finally:
                        db.buffer.unfix(child_id)
                children = list(page.child_ids)
            finally:
                db.buffer.unfix(page_id)
            for child_id in children:
                verify(child_id)

        verify(tree.root_page_id)

    def test_rightmost_child_always_unbounded(self):
        db = build_db(page_size=768)
        db.create_table("t")
        db.create_index("t", "by_id", column="id", unique=True)
        populate(db, range(400))
        tree = db.tables["t"].indexes["by_id"]

        def walk(page_id):
            page = tree.fix_page(page_id, tree.ctx.incarnation)
            try:
                if not page.is_leaf:
                    assert page.high_keys[-1] is None
                    children = list(page.child_ids)
                else:
                    children = []
            finally:
                db.buffer.unfix(page_id)
            for child in children:
                walk(child)

        walk(tree.root_page_id)
