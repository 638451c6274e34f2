"""Figure 11: the Delete_Bit safeguard.

The forbidden interleaving: T1 deletes a key on leaf P6; T3 starts an
SMO elsewhere in the tree (a region of structural inconsistency —
ROSI); T2 consumes the freed space and commits *inside* the ROSI; the
system crashes.  At restart, T1's delete must be undone, the space is
gone, so the undo needs a page split — a tree traversal — against a
structurally inconsistent tree.

The Delete_Bit makes T2 establish a point of structural consistency
(wait for the SMO) before consuming the space.  These tests stage the
interleaving deterministically and verify:

- with the safeguard: T2 blocks until T3's SMO completes; its insert
  is logged *outside* the ROSI; crash recovery is clean;
- ablation (``enable_delete_bit=False``): T2's insert is logged
  *inside* another transaction's ROSI — the precondition for the
  Figure 11 disaster (and recovery is exercised anyway).
"""

import threading

from repro.common.errors import DatabaseClosedError, SimulatedCrash
from repro.common.keys import decode_int_key
from repro.wal.records import RecordKind
from tests.conftest import SpyCondition, build_db, populate


def make_db(**overrides):
    db = build_db(page_size=768, **overrides)
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    return db


def leaf_layout(db):
    """(leaf page, keys) of the first leaf."""
    tree = db.tables["t"].indexes["by_id"]
    page = tree.fix_page(tree.root_page_id, tree.ctx.incarnation)
    while not page.is_leaf:
        child = page.child_ids[0]
        db.buffer.unfix(page.page_id)
        page = tree.fix_page(child, tree.ctx.incarnation)
    keys = [decode_int_key(k.value) for k in page.keys]
    db.buffer.unfix(page.page_id)
    return page.page_id, keys


def fill_first_leaf(db):
    """Populate so the first leaf is (nearly) full of keys 0,2,4,..."""
    populate(db, range(0, 200, 2))


class _SplitterElsewhere:
    """T3: a transaction whose split of the tree's high region is
    paused mid-SMO, opening a ROSI."""

    def __init__(self, db):
        self.db = db
        self.pause_name = "smo.split.after_leaf_level"
        db.failpoints.arm_pause(self.pause_name)
        self.smo_start_lsn = None
        self.smo_end_lsn = None
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.txn = None

    def _run(self):
        db = self.db
        self.txn = db.begin()
        before = db.stats.get("btree.page_splits")
        key = 100_001
        try:
            while db.stats.get("btree.page_splits") == before:
                db.insert(self.txn, "t", {"id": key, "val": "z" * 30})
                key += 2
            db.commit(self.txn)
            self.smo_end_lsn = db.log.end_lsn
        except (SimulatedCrash, DatabaseClosedError):
            # The database crashed while we were paused (the SMO's exit
            # then finds its incarnation retired).
            pass

    def start_and_wait_until_mid_smo(self):
        self.thread.start()
        self.db.failpoints.wait_until_paused(self.pause_name)
        # First SMO record of this transaction = ROSI start.
        self.smo_start_lsn = next(
            r.lsn
            for r in self.db.log.records()
            if r.txn_id == self.txn.txn_id and r.op in ("page_format", "leaf_shrink")
        )

    def finish(self):
        self.db.failpoints.release(self.pause_name)
        self.thread.join(timeout=30)


def test_with_delete_bit_space_consumption_waits_for_posc():
    db = make_db()
    fill_first_leaf(db)
    _, keys = leaf_layout(db)
    assert len(keys) >= 6
    victim = keys[len(keys) // 2]  # non-boundary: no POSC at delete time
    filler = keys[2] + 1  # a different gap: no next-key lock conflict

    # T1 deletes (uncommitted) — sets the Delete_Bit.
    t1 = db.begin()
    db.delete_by_key(t1, "t", "by_id", victim)

    # T3 opens a ROSI elsewhere.
    t3 = _SplitterElsewhere(db)
    t3.start_and_wait_until_mid_smo()

    # T2 tries to consume the freed space: must wait for the SMO.
    t2_insert_lsn = {}

    def consumer():
        t2 = db.begin()
        db.insert(t2, "t", {"id": filler, "val": "c"})
        t2_insert_lsn["lsn"] = t2.last_lsn
        db.commit(t2)

    # T3's SMO holds the X tree latch: T2 parks on it.
    tree_latch = db.latches.tree_latch(db.tables["t"].indexes["by_id"].index_id)
    tree_latch._cond = spy = SpyCondition(tree_latch._lock)  # noqa: SLF001
    latch_waits = db.stats.get("latch.waits")
    consumer_thread = threading.Thread(target=consumer)
    consumer_thread.start()
    assert spy.parked.wait(30)
    assert "lsn" not in t2_insert_lsn, "T2 must block on the Delete_Bit"

    t3.finish()
    consumer_thread.join(timeout=30)
    assert db.stats.get("latch.waits") - latch_waits >= 1
    assert t3.smo_end_lsn is not None
    assert t2_insert_lsn["lsn"] > t3.smo_start_lsn
    # The insert was logged only after the ROSI closed.
    dummy_clrs = [
        r.lsn
        for r in db.log.records(t3.smo_start_lsn)
        if r.txn_id == t3.txn.txn_id and r.kind is RecordKind.DUMMY_CLR
    ]
    assert dummy_clrs and t2_insert_lsn["lsn"] > dummy_clrs[0]

    # Crash with T1 in flight: its delete undoes cleanly (logically if
    # the space is gone).
    db.log.force()
    db.crash()
    db.restart()
    assert db.verify_indexes() == {}
    check = db.begin()
    assert db.fetch(check, "t", "by_id", victim) is not None  # T1 undone
    assert db.fetch(check, "t", "by_id", filler) is not None  # T2 committed
    db.commit(check)


def test_ablation_without_delete_bit_consumes_inside_rosi():
    db = make_db(enable_delete_bit=False)
    fill_first_leaf(db)
    _, keys = leaf_layout(db)
    victim = keys[len(keys) // 2]
    filler = keys[2] + 1

    t1 = db.begin()
    db.delete_by_key(t1, "t", "by_id", victim)

    t3 = _SplitterElsewhere(db)
    t3.start_and_wait_until_mid_smo()

    # T2 proceeds immediately — the Figure 11 precondition.
    t2 = db.begin()
    db.insert(t2, "t", {"id": filler, "val": "c"})
    insert_lsn = t2.last_lsn
    db.commit(t2)
    assert insert_lsn > t3.smo_start_lsn
    # T3 never completed: the insert sits inside the open ROSI.
    dummy_clrs = [
        r
        for r in db.log.records(t3.smo_start_lsn)
        if r.txn_id == t3.txn.txn_id and r.kind is RecordKind.DUMMY_CLR
    ]
    assert dummy_clrs == []

    # Crash here.  T3's thread dies at its pause point; the incomplete
    # SMO and T1's delete both get undone at restart.  (This particular
    # shape survives because the undo-time split stays in a consistent
    # subtree; the point demonstrated is that the *forbidden log shape*
    # became reachable at all.)
    db.log.force()
    db.crash()
    t3.thread.join(timeout=30)
    db.restart()
    assert db.verify_indexes() == {}
    check = db.begin()
    assert db.fetch(check, "t", "by_id", victim) is not None
    assert db.fetch(check, "t", "by_id", filler) is not None
    db.commit(check)
