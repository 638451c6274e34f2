"""E6 — Figure 11: the Delete_Bit / POSC safeguard, measured.

Regenerates the scenario as a measured table: whether the
space-consuming insert (T2) was forced to wait for the in-progress SMO
(T3), whether its record landed inside T3's region of structural
inconsistency (ROSI), and whether crash recovery afterwards restored
exactly the committed state.

Expectation (the paper's design point): with the Delete_Bit the insert
is delayed past the POSC (logged outside the ROSI); the ablation lets
it land inside — the precondition for the unrecoverable undo the
figure describes.
"""

import threading
import time

from repro.common.config import DatabaseConfig
from repro.common.errors import SimulatedCrash
from repro.common.keys import decode_int_key
from repro.db import Database
from repro.harness.report import format_table
from repro.wal.records import RecordKind

from _common import write_result


def stage(enable_delete_bit: bool) -> dict:
    db = Database(DatabaseConfig(page_size=768, enable_delete_bit=enable_delete_bit))
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    txn = db.begin()
    for key in range(0, 200, 2):
        db.insert(txn, "t", {"id": key, "val": "x"})
    db.commit(txn)

    tree = db.tables["t"].indexes["by_id"]
    page = tree.fix_page(tree.root_page_id, tree.ctx.incarnation)
    while not page.is_leaf:
        child = page.child_ids[0]
        db.buffer.unfix(page.page_id)
        page = tree.fix_page(child, tree.ctx.incarnation)
    keys = [decode_int_key(k.value) for k in page.keys]
    db.buffer.unfix(page.page_id)
    victim = keys[len(keys) // 2]  # non-boundary
    filler = keys[2] + 1  # a different gap of the same leaf

    # T1: the uncommitted delete that frees the space (sets Delete_Bit).
    t1 = db.begin()
    db.delete_by_key(t1, "t", "by_id", victim)

    # T3: a paused SMO elsewhere in the tree — an open ROSI.
    db.failpoints.arm_pause("smo.split.after_leaf_level")
    smo_info = {}

    def splitter():
        t3 = db.begin()
        smo_info["txn_id"] = t3.txn_id
        before = db.stats.get("btree.page_splits")
        key = 100_001
        try:
            while db.stats.get("btree.page_splits") == before:
                db.insert(t3, "t", {"id": key, "val": "z" * 30})
                key += 2
            db.commit(t3)
        except SimulatedCrash:
            pass

    t3_thread = threading.Thread(target=splitter, daemon=True)
    t3_thread.start()
    db.failpoints.wait_until_paused("smo.split.after_leaf_level")
    rosi_start = next(
        r.lsn
        for r in db.log.records()
        if r.txn_id == smo_info["txn_id"] and r.op in ("page_format", "leaf_shrink")
    )

    # T2: consume the freed space.
    t2_result = {}

    def consumer():
        t2 = db.begin()
        db.insert(t2, "t", {"id": filler, "val": "c"})
        t2_result["lsn"] = t2.last_lsn
        db.commit(t2)

    t2_thread = threading.Thread(target=consumer)
    t2_thread.start()
    time.sleep(0.4)
    blocked = "lsn" not in t2_result
    db.failpoints.release("smo.split.after_leaf_level")
    t2_thread.join(timeout=30)
    t3_thread.join(timeout=30)

    rosi_end = None
    for record in db.log.records(rosi_start):
        if (
            record.txn_id == smo_info["txn_id"]
            and record.kind is RecordKind.DUMMY_CLR
        ):
            rosi_end = record.lsn
            break
    inside_rosi = rosi_end is None or t2_result["lsn"] < rosi_end

    # Crash with T1 still in flight; recovery must restore exactly the
    # committed state (victim back — the logical-undo path of Figure 11
    # — and the filler present).
    db.log.force()
    db.crash()
    db.restart()
    check = db.begin()
    recovered = (
        db.fetch(check, "t", "by_id", victim) is not None
        and db.fetch(check, "t", "by_id", filler) is not None
    )
    db.commit(check)
    return {
        "delete_bit": enable_delete_bit,
        "consumer_waited_for_posc": blocked,
        "consumed_inside_rosi": inside_rosi,
        "recovered_exactly": recovered and db.verify_indexes() == {},
    }



def test_e06_figure11_delete_bit(benchmark):
    results = benchmark.pedantic(
        lambda: [stage(True), stage(False)], rounds=1, iterations=1
    )
    table = format_table(
        ["Delete_Bit", "T2 waited for POSC", "T2 logged inside ROSI", "recovered"],
        [
            (
                r["delete_bit"],
                r["consumer_waited_for_posc"],
                r["consumed_inside_rosi"],
                r["recovered_exactly"],
            )
            for r in results
        ],
        title="E6 / Figure 11 — Delete_Bit keeps space consumption out of the ROSI",
    )
    write_result("e06_figure11_delete_bit", table)

    safeguarded, ablated = results
    assert safeguarded["consumer_waited_for_posc"]
    assert not safeguarded["consumed_inside_rosi"]
    assert safeguarded["recovered_exactly"]
    assert not ablated["consumer_waited_for_posc"]
    assert ablated["consumed_inside_rosi"], (
        "ablation: the forbidden Figure 11 log shape became reachable"
    )
