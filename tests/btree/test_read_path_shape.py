"""The read path's protocol shape: exact counts per Fetch and Fetch Next.

Each test runs one read inside an open transaction and diffs the
database's counters around it: lock requests (by mode and duration),
latch grants, buffer fixes, traversals and the cursor's fast-path and
reposition counts.  These are the calls §2–§3 prescribe; a change to
the read path may make them fewer, never more (DESIGN.md, "The read
path's floor").

The tree is two levels: a root over leaves of 69 keys each, all keys
multiples of 10.  Every fix here is a buffer hit.
"""

from __future__ import annotations

import pytest

from repro.common.keys import decode_int_key
from repro.locks.modes import eof_lock_name

from tests.conftest import build_db, populate

KEYS = range(0, 20_000, 10)


def _database(protocol: str | None = None):
    db = build_db()
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True, protocol=protocol)
    populate(db, KEYS)
    return db


@pytest.fixture(scope="module")
def db():
    return _database()


def leaves(db) -> list[list[int]]:
    """The integer ids of each leaf, in leaf-chain order."""
    tree = db.tables["t"].indexes["by_id"]
    out = []
    page = tree.fix_page(tree.root_page_id)
    while not page.is_leaf:
        child = page.child_ids[0]
        db.buffer.unfix(page.page_id)
        page = tree.fix_page(child)
    while True:
        out.append([decode_int_key(k.value) for k in page.keys])
        next_id = page.next_leaf
        db.buffer.unfix(page.page_id)
        if not next_id:
            return out
        page = tree.fix_page(next_id)


def shape(db, read) -> dict[str, object]:
    """Run ``read(txn)`` in a fresh transaction; the counts it cost."""
    txn = db.begin()
    before = db.stats.snapshot()
    read(txn)
    diff = db.stats.diff(before)
    held = db.locks.lock_count(txn.txn_id)
    db.commit(txn)
    return {
        "locks": {
            name[len("lock.requests.") :]: n
            for name, n in diff.items()
            if name.startswith("lock.requests.")
        },
        "latches": diff.get("latch.acquisitions", 0),
        "fixes": diff.get("buffer.hits", 0) + diff.get("buffer.misses", 0),
        "traversals": diff.get("btree.traversals", 0),
        "fast_path": diff.get("btree.cursor_fast_path", 0),
        "repositions": diff.get("btree.cursor_repositions", 0),
        "held": held,
    }


def scan(db, low: int, high: int, isolation: str = "rr"):
    def read(txn):
        rows = list(db.scan(txn, "t", "by_id", low=low, high=high, isolation=isolation))
        assert [row["id"] for _, row in rows] == [k for k in KEYS if low <= k <= high]

    return read


def test_the_tree_is_two_levels_of_69_key_leaves(db):
    chain = leaves(db)
    assert [k for leaf in chain for k in leaf] == list(KEYS)
    assert len(chain[0]) == 69 and len(chain) > 2
    tree = db.tables["t"].indexes["by_id"]
    root = tree.fix_page(tree.root_page_id)
    try:
        assert root.level == 1
    finally:
        db.buffer.unfix(root.page_id)


class TestFetch:
    def test_hit(self, db):
        """Root and leaf fixed and S-latched, the key's record S-locked
        to commit, the heap page fixed and S-latched."""
        got = shape(db, lambda txn: db.fetch(txn, "t", "by_id", 100))
        assert got == {
            "locks": {"S.commit": 1},
            "latches": 3,
            "fixes": 3,
            "traversals": 1,
            "fast_path": 0,
            "repositions": 0,
            "held": 1,
        }

    def test_miss_locks_the_next_key(self, db):
        """No heap read: the lock is on the next key (§2.2)."""
        got = shape(db, lambda txn: db.fetch(txn, "t", "by_id", 105))
        assert got == {
            "locks": {"S.commit": 1},
            "latches": 2,
            "fixes": 2,
            "traversals": 1,
            "fast_path": 0,
            "repositions": 0,
            "held": 1,
        }

    def test_miss_past_the_last_key_locks_eof(self, db):
        tree = db.tables["t"].indexes["by_id"]
        names = []

        def read(txn):
            assert db.fetch(txn, "t", "by_id", 50_001) is None
            names.extend(name for name, _, _ in db.locks.locks_of(txn.txn_id))

        got = shape(db, read)
        assert names == [eof_lock_name(tree.index_id)]
        assert got["locks"] == {"S.commit": 1}
        assert (got["latches"], got["fixes"], got["traversals"]) == (2, 2, 1)


class TestFetchNext:
    def test_ten_keys_within_one_leaf(self, db):
        """Fetch opens (2 fixes, 1 lock); each of the 10 rows costs a
        heap fix; each of the 10 Fetch Next steps — the last one finds
        the key past the stop value — costs one leaf fix and one lock."""
        leaf = leaves(db)[3]
        got = shape(db, scan(db, leaf[1], leaf[10]))
        assert got == {
            "locks": {"S.commit": 11},
            "latches": 22,
            "fixes": 22,
            "traversals": 1,
            "fast_path": 10,
            "repositions": 0,
            "held": 11,
        }

    def test_a_step_that_hops_to_the_next_leaf(self, db):
        """The step off a leaf's last key latches the next leaf while it
        holds the first: one fix and one latch more, still no traversal."""
        chain = leaves(db)
        before = db.stats.get("btree.next_leaf_hops")
        got = shape(db, scan(db, chain[3][-5], chain[4][4]))
        assert db.stats.get("btree.next_leaf_hops") - before == 1
        assert got == {
            "locks": {"S.commit": 11},
            "latches": 23,
            "fixes": 23,
            "traversals": 1,
            "fast_path": 10,
            "repositions": 0,
            "held": 11,
        }

    def test_repositioned_after_a_split_between_calls(self):
        """A split of the cursor's leaf between two steps changes its
        page LSN: the next step lets the leaf go and traverses again
        (3 fixes instead of 1), and the steps after it are fast again."""
        db = _database()
        leaf = leaves(db)[3]
        low, high = leaf[1], leaf[10]
        counts = {}

        def read(txn):
            rows = db.scan(txn, "t", "by_id", low=low, high=high)
            next(rows)
            before = db.stats.snapshot()
            # New keys beyond the scanned range fill the leaf until it
            # splits; the scanned keys stay on the left half.
            for key in range(leaf[20] + 1, leaf[-1]):
                if key % 10:
                    db.insert(txn, "t", {"id": key, "val": "v"})
                    if db.stats.get("btree.smo_begun") > before.get("btree.smo_begun", 0):
                        break
            counts.update(db.stats.diff(before))
            assert [row["id"] for _, row in rows] == leaf[2:11]

        got = shape(db, read)
        assert counts.get("btree.smo_begun", 0) >= 1
        assert leaves(db)[3][:12] == leaf[:12]
        writes = {
            "locks": sum(n for name, n in counts.items() if name.startswith("lock.requests.")),
            "latches": counts.get("latch.acquisitions", 0),
            "fixes": counts.get("buffer.hits", 0) + counts.get("buffer.misses", 0),
            "traversals": counts.get("btree.traversals", 0),
        }
        assert got["locks"]["S.commit"] == 11
        assert sum(got["locks"].values()) - writes["locks"] == 11
        assert got["latches"] - writes["latches"] == 24
        assert got["fixes"] - writes["fixes"] == 24
        assert got["traversals"] - writes["traversals"] == 2
        assert (got["fast_path"], got["repositions"]) == (9, 1)

    def test_cursor_stability_releases_each_key(self, db):
        """Degree 2: the same requests, manual duration, and nothing
        held once the scan ends."""
        leaf = leaves(db)[3]
        got = shape(db, scan(db, leaf[1], leaf[10], isolation="cs"))
        assert got == {
            "locks": {"S.manual": 11},
            "latches": 22,
            "fixes": 22,
            "traversals": 1,
            "fast_path": 10,
            "repositions": 0,
            "held": 0,
        }


class TestIndexSpecificProtocol:
    """With index-specific locking the record manager locks the record
    too: one more lock request per row read, the same latches and fixes."""

    @pytest.fixture(scope="class")
    def db(self):
        return _database("aries_im_index_specific")

    def test_fetch_hit(self, db):
        got = shape(db, lambda txn: db.fetch(txn, "t", "by_id", 100))
        assert got["locks"] == {"S.commit": 2}
        assert (got["latches"], got["fixes"], got["traversals"], got["held"]) == (3, 3, 1, 2)

    def test_ten_key_scan(self, db):
        leaf = leaves(db)[3]
        got = shape(db, scan(db, leaf[1], leaf[10]))
        assert got == {
            "locks": {"S.commit": 21},
            "latches": 22,
            "fixes": 22,
            "traversals": 1,
            "fast_path": 10,
            "repositions": 0,
            "held": 21,
        }
