"""E2 — Figure 1: logical undo after an intervening split.

Scenario: T1 inserts a key into page P1; T2's inserts split P1 and
move T1's key to P2; T1 rolls back.  The undo must locate the key by
re-traversing from the root, and the CLR names the page actually
changed (P2).

Measured series: page-oriented vs logical undo counts as a function of
how much foreign-split activity intervenes before the rollback.
Expectation: with no intervening splits undo stays page-oriented;
logical undos appear once splits move the victim key.
"""

from repro.common.config import DatabaseConfig
from repro.common.keys import decode_str_key
from repro.db import Database
from repro.harness.report import format_table

from _common import write_result


def run_scenario(foreign_inserts: int) -> dict:
    db = Database(DatabaseConfig(page_size=768))
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    txn = db.begin()
    for i in range(0, 80, 2):
        db.insert(txn, "t", {"id": f"key{i:04d}", "val": "x"})
    db.commit(txn)

    # The victim (Figure 1's K8) sits near the *top* of the first leaf,
    # so a split of that leaf carries it to the new right page.
    tree = db.tables["t"].indexes["by_id"]
    page = tree.fix_page(tree.root_page_id, tree.ctx.incarnation)
    while not page.is_leaf:
        child = page.child_ids[0]
        db.buffer.unfix(page.page_id)
        page = tree.fix_page(child, tree.ctx.incarnation)
    leaf_keys = [decode_str_key(k.value) for k in page.keys]
    original_page = page.page_id
    db.buffer.unfix(page.page_id)
    victim = leaf_keys[-2] + "z"  # sorts between the top two keys

    t1 = db.begin()
    db.insert(t1, "t", {"id": victim, "val": "K8"})

    # T2 (Figure 1's splitter) fills the gaps *below* the victim with
    # extra keys, pushing the victim into the moved upper half.  The
    # last gap is avoided so no filler's next-key lock hits the victim.
    t2 = db.begin()
    fillers = []
    for base in leaf_keys[:-2]:
        for suffix in "abcdefgh":
            fillers.append(base + suffix)
    for filler in fillers[:foreign_inserts]:
        db.insert(t2, "t", {"id": filler, "val": "f"})
    db.commit(t2)

    splits = db.stats.get("btree.page_splits")
    before_po = db.stats.get("btree.undo.page_oriented")
    before_lo = db.stats.get("btree.undo.logical")
    db.rollback(t1)
    check = db.begin()
    assert db.fetch(check, "t", "by_id", victim) is None
    db.commit(check)
    assert db.verify_indexes() == {}
    return {
        "foreign_inserts": foreign_inserts,
        "splits": splits,
        "page_oriented_undos": db.stats.get("btree.undo.page_oriented") - before_po,
        "logical_undos": db.stats.get("btree.undo.logical") - before_lo,
        "original_page": original_page,
    }


def test_e02_figure1_logical_undo(benchmark):
    results = benchmark.pedantic(
        lambda: [run_scenario(n) for n in (0, 8, 16, 32)], rounds=1, iterations=1
    )
    table = format_table(
        ["foreign inserts", "splits", "page-oriented undos", "logical undos"],
        [
            (r["foreign_inserts"], r["splits"], r["page_oriented_undos"], r["logical_undos"])
            for r in results
        ],
        title="E2 / Figure 1 — undo path vs intervening split activity",
    )
    write_result("e02_figure1_logical_undo", table)

    quiet = results[0]
    assert quiet["logical_undos"] == 0, "no splits → page-oriented undo only"
    assert quiet["page_oriented_undos"] == 1
    busy = results[-1]
    assert busy["logical_undos"] >= 1, "splits moved the key → logical undo required"
