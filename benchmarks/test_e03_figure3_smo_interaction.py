"""E3 — Figure 3: insert racing an in-progress SMO.

Paper behaviour: the insert targeting the split leaf waits for the SMO
(SM_Bit + instant S tree latch), then lands on the correct page.
Ablation (``enable_sm_bit=False``): traversal proceeds blindly; the
insert does not wait.  (The staleness guard of this implementation
still routes the key to the right page, so the measured ablation
damage is the *loss of the waiting discipline* that §3 requires for
recoverability — quantified as the number of non-waiting operations
logged during another transaction's SMO window.)
"""

import threading
import time

from repro.common.config import DatabaseConfig
from repro.db import Database
from repro.harness.report import format_table

from _common import write_result


def stage(enable_sm_bit: bool) -> dict:
    db = Database(DatabaseConfig(page_size=768, enable_sm_bit=enable_sm_bit))
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    txn = db.begin()
    for key in range(0, 120, 2):
        db.insert(txn, "t", {"id": key, "val": "x" * 8})
    db.commit(txn)

    db.failpoints.arm_pause("smo.split.after_leaf_level")
    splits_before = db.stats.get("btree.page_splits")

    def splitter():
        t1 = db.begin()
        key = 100_001
        while db.stats.get("btree.page_splits") == splits_before:
            db.insert(t1, "t", {"id": key, "val": "s" * 40})
            key += 2
        db.commit(t1)

    split_thread = threading.Thread(target=splitter)
    split_thread.start()
    db.failpoints.wait_until_paused("smo.split.after_leaf_level")

    # T2 inserts a key destined for the leaf being split, in a gap
    # between committed keys (so no next-key lock conflict with the
    # splitter masks the latching behaviour under test).
    result = {}

    def inserter():
        t2 = db.begin()
        start = time.monotonic()
        db.insert(t2, "t", {"id": 95, "val": "i"})
        result["wait"] = time.monotonic() - start
        db.commit(t2)

    insert_thread = threading.Thread(target=inserter)
    insert_thread.start()
    time.sleep(0.5)
    blocked = "wait" not in result
    db.failpoints.release("smo.split.after_leaf_level")
    insert_thread.join(timeout=30)
    split_thread.join(timeout=30)
    violations = db.verify_indexes()
    check = db.begin()
    landed = db.fetch(check, "t", "by_id", 95) is not None
    db.commit(check)
    return {
        "sm_bit": enable_sm_bit,
        "insert_blocked_on_smo": blocked,
        "insert_wait_seconds": round(result["wait"], 3),
        "key_retrievable": landed,
        "structure_violations": len(violations),
    }


def test_e03_figure3_smo_interaction(benchmark):
    results = benchmark.pedantic(
        lambda: [stage(True), stage(False)], rounds=1, iterations=1
    )
    table = format_table(
        ["SM_Bit", "insert waited for SMO", "key ok", "violations"],
        [
            (
                r["sm_bit"],
                r["insert_blocked_on_smo"],
                r["key_retrievable"],
                r["structure_violations"],
            )
            for r in results
        ],
        title="E3 / Figure 3 — insert vs in-progress SMO",
    )
    write_result("e03_figure3_smo_interaction", table)
    clocks = format_table(
        ["SM_Bit", "wait (s)"],
        [(r["sm_bit"], r["insert_wait_seconds"]) for r in results],
        title="E3 — insert wait, wall clock",
    )
    write_result("e03_figure3_smo_interaction.clocks", clocks)

    with_bit, without_bit = results
    assert with_bit["insert_blocked_on_smo"], "SM_Bit makes the insert wait"
    assert with_bit["insert_wait_seconds"] >= 0.4
    assert with_bit["key_retrievable"] and with_bit["structure_violations"] == 0
    assert not without_bit["insert_blocked_on_smo"], (
        "ablation: the waiting discipline is gone — the insert was "
        "logged inside the SMO window"
    )
