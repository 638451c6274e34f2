"""E5 — Figure 10: the log-record shape of a page deletion.

Regenerates the figure: the key delete is logged first, then the page
deletion's records as a nested top action, then the dummy CLR whose
undo-next points *at the key-delete record* — so a rollback skips the
page deletion but still undoes the key delete (logically, since the
page is gone).
"""

from repro.common.config import DatabaseConfig
from repro.common.keys import decode_int_key
from repro.db import Database
from repro.harness.report import format_table
from repro.wal.records import RecordKind

from _common import write_result


def run() -> dict:
    db = Database(DatabaseConfig(page_size=768))
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    txn = db.begin()
    for key in range(60):
        db.insert(txn, "t", {"id": key, "val": "x" * 8})
    db.commit(txn)

    # Drain the rightmost leaf down to one key.
    tree = db.tables["t"].indexes["by_id"]
    page = tree.fix_page(tree.root_page_id, tree.ctx.incarnation)
    while not page.is_leaf:
        child = page.child_ids[-1]
        db.buffer.unfix(page.page_id)
        page = tree.fix_page(child, tree.ctx.incarnation)
    resident_keys = [decode_int_key(k.value) for k in page.keys]
    db.buffer.unfix(page.page_id)
    txn = db.begin()
    for key in resident_keys[:-1]:
        db.delete_by_key(txn, "t", "by_id", key)
    db.commit(txn)

    # The final delete empties the page.
    txn = db.begin()
    start = db.log.end_lsn
    deletes_before = db.stats.get("btree.page_deletes")
    db.delete_by_key(txn, "t", "by_id", resident_keys[-1])
    assert db.stats.get("btree.page_deletes") == deletes_before + 1
    records = [r for r in db.log.records(start) if r.txn_id == txn.txn_id]
    sequence = []
    for r in records:
        if r.kind is RecordKind.DUMMY_CLR:
            sequence.append("dummy-CLR")
        elif r.kind is RecordKind.UPDATE:
            sequence.append(f"{r.rm}.{r.op}")
    delete_lsn = next(r.lsn for r in records if r.op == "delete_key")
    dummy = next(r for r in records if r.kind is RecordKind.DUMMY_CLR)

    logical_before = db.stats.get("btree.undo.logical")
    db.rollback(txn)
    check = db.begin()
    restored = db.fetch(check, "t", "by_id", resident_keys[-1]) is not None
    db.commit(check)
    return {
        "sequence": sequence,
        "dummy_points_at_key_delete": dummy.undo_next_lsn == delete_lsn,
        "key_restored_on_rollback": restored,
        "undo_was_logical": db.stats.get("btree.undo.logical") > logical_before,
        "page_delete_survived": db.stats.get("btree.undo.smo_records") == 0,
        "consistent": db.verify_indexes() == {},
        "records_per_page_delete": len(records),
    }


def test_e05_figure10_delete_logging(benchmark):
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        "E5 / Figure 10 — page deletion during forward processing",
        "========================================================",
        "observed record sequence for the emptying delete:",
    ]
    lines += [f"  {i + 1}. {step}" for i, step in enumerate(result["sequence"])]
    lines.append("")
    lines.append(
        format_table(
            ["metric", "value"],
            [(k, v) for k, v in result.items() if k != "sequence"],
        )
    )
    write_result("e05_figure10_delete_logging", "\n".join(lines))

    sequence = result["sequence"]
    assert sequence[0].endswith("delete_key"), "Figure 10: key delete first"
    assert "dummy-CLR" in sequence
    assert result["dummy_points_at_key_delete"]
    assert result["key_restored_on_rollback"]
    assert result["undo_was_logical"], "the page is gone → logical undo"
    assert result["page_delete_survived"]
    assert result["consistent"]
