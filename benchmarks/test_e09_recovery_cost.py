"""E9 — restart recovery cost (§1's efficiency measures).

Crash under load with a parameter sweep over the number of in-flight
transactions, and measure what the paper says matters:

- passes over the log (always 2: analysis, then undo backwards along
  the losers' chains; redo reads each dirty page's own log chain and
  makes no pass of its own);
- pages accessed during redo (page-oriented, no traversals);
- records redone / undone;
- page-oriented vs logical undo split;
- wall-clock restart time.

Expected shape: redo work scales with unflushed committed volume, undo
work scales with in-flight volume, and the large majority of undos are
page-oriented.
"""

import time

from repro.common.config import DatabaseConfig
from repro.db import Database
from repro.harness.report import format_table

from _common import write_result


def crash_with_inflight(inflight_txns: int) -> dict:
    db = Database(DatabaseConfig(page_size=1024, buffer_pool_pages=512))
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    txn = db.begin()
    for key in range(0, 2_000, 2):
        db.insert(txn, "t", {"id": key, "val": "x" * 12})
    db.commit(txn)
    db.flush_all_pages()
    db.checkpoint()

    # Committed-but-unflushed work (to be redone).
    txn = db.begin()
    for key in range(10_000, 10_400):
        db.insert(txn, "t", {"id": key, "val": "y" * 12})
    db.commit(txn)

    # In-flight work (to be undone): odd keys scattered through the
    # committed even range, so the inserts land on existing half-full
    # pages (the common case — undo stays page-oriented).
    for t in range(inflight_txns):
        txn = db.begin()
        for i in range(60):
            key = 2 * (t + max(inflight_txns, 1) * i) + 1
            db.insert(txn, "t", {"id": key, "val": "z" * 12})
        # left open
    db.log.force()

    before = db.stats.snapshot()
    db.crash()
    start = time.monotonic()
    report = db.restart()
    elapsed = time.monotonic() - start
    delta = db.stats.diff(before)
    assert db.verify_indexes() == {}
    txn = db.begin()
    count = sum(1 for _ in db.scan(txn, "t", "by_id"))
    db.commit(txn)
    assert count == 1_000 + 400
    return {
        "inflight": inflight_txns,
        "log_passes": report.log_passes,
        "redo_pages": report.redo.pages_touched,
        "records_redone": report.redo.records_redone,
        "records_undone": report.undo.records_undone,
        "undo_page_oriented": delta.get("btree.undo.page_oriented", 0),
        "undo_logical": delta.get("btree.undo.logical", 0),
        "restart_seconds": round(elapsed, 3),
    }


def test_e09_recovery_cost(benchmark):
    results = benchmark.pedantic(
        lambda: [crash_with_inflight(n) for n in (0, 1, 4, 8)], rounds=1, iterations=1
    )
    table = format_table(
        [
            "in-flight txns",
            "log passes",
            "redo pages",
            "redone",
            "undone",
            "undo page-oriented",
            "undo logical",
            "restart (s)",
        ],
        [
            (
                r["inflight"],
                r["log_passes"],
                r["redo_pages"],
                r["records_redone"],
                r["records_undone"],
                r["undo_page_oriented"],
                r["undo_logical"],
                r["restart_seconds"],
            )
            for r in results
        ],
        title="E9 — restart recovery cost vs in-flight transactions",
    )
    write_result("e09_recovery_cost", table)

    assert all(r["log_passes"] == 2 for r in results)
    assert results[0]["records_undone"] == 0
    undone = [r["records_undone"] for r in results]
    assert undone == sorted(undone), "undo work grows with in-flight volume"
    heavy = results[-1]
    assert heavy["undo_page_oriented"] >= heavy["undo_logical"], (
        "most undos stay page-oriented"
    )
