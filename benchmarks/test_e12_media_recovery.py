"""E12 — page-oriented media recovery (§5).

Take a fuzzy image copy, keep working, corrupt one index page, and
recover it from the dump by rolling forward *only that page's* log
records.  Measured: log records applied, records scanned (one pass),
wall-clock, correctness of the whole index afterwards — swept over how
much work happened after the dump.

Expected shape: the applied-record count grows with post-dump work on
the damaged page, the pass count stays 1, and no other page is
touched.
"""

import time

from repro.common.config import DatabaseConfig
from repro.db import Database
from repro.harness.report import format_table
from repro.recovery.media import recover_page, take_image_copy

from _common import write_result


def run(post_dump_inserts: int) -> dict:
    db = Database(DatabaseConfig(page_size=1024, buffer_pool_pages=512))
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    txn = db.begin()
    for key in range(0, 1_000, 2):
        db.insert(txn, "t", {"id": key, "val": "x" * 8})
    db.commit(txn)
    db.flush_all_pages()
    dump = take_image_copy(db)

    # Post-dump work aimed at one fixed page: odd keys into the gaps of
    # the *first* leaf (present in the dump, and few enough inserts that
    # it never splits) — so "records applied" is exactly the post-dump
    # update count for that page.
    tree = db.tables["t"].indexes["by_id"]
    page = tree.fix_page(tree.root_page_id, tree.ctx.incarnation)
    while not page.is_leaf:
        child = page.child_ids[0]
        db.buffer.unfix(page.page_id)
        page = tree.fix_page(child, tree.ctx.incarnation)
    victim = page.page_id
    from repro.common.keys import decode_int_key

    gap_keys = [decode_int_key(k.value) + 1 for k in page.keys[:-1]]
    db.buffer.unfix(victim)
    assert post_dump_inserts <= len(gap_keys)

    txn = db.begin()
    for key in gap_keys[:post_dump_inserts]:
        db.insert(txn, "t", {"id": key, "val": "y" * 8})
    db.commit(txn)
    db.flush_all_pages()
    db.disk.corrupt(victim)
    db.buffer.discard(victim)

    reads_before = db.stats.get("buffer.pages_read")
    start = time.monotonic()
    applied = recover_page(db, victim, dump)
    elapsed = time.monotonic() - start
    pages_read = db.stats.get("buffer.pages_read") - reads_before

    assert db.verify_indexes() == {}
    txn = db.begin()
    count = sum(1 for _ in db.scan(txn, "t", "by_id"))
    db.commit(txn)
    assert count == 500 + post_dump_inserts
    return {
        "post_dump_inserts": post_dump_inserts,
        "records_applied": applied,
        "pages_read": pages_read,
        "log_passes": 1,
        "seconds": round(elapsed, 4),
    }


def test_e12_media_recovery(benchmark):
    results = benchmark.pedantic(
        lambda: [run(n) for n in (0, 3, 6, 10)], rounds=1, iterations=1
    )
    table = format_table(
        ["post-dump inserts", "records applied", "pages read", "log passes"],
        [
            (
                r["post_dump_inserts"],
                r["records_applied"],
                r["pages_read"],
                r["log_passes"],
            )
            for r in results
        ],
        title="E12 — page-oriented media recovery of one damaged index page",
    )
    write_result("e12_media_recovery", table)
    clocks = format_table(
        ["post-dump inserts", "seconds"],
        [(r["post_dump_inserts"], r["seconds"]) for r in results],
        title="E12 — page recovery time, wall clock",
    )
    write_result("e12_media_recovery.clocks", clocks)

    applied = [r["records_applied"] for r in results]
    assert applied == sorted(applied), "applied records grow with post-dump work"
    assert all(r["log_passes"] == 1 for r in results)
    # Page-oriented: recovery reads a page image, not the tree.
    assert all(r["pages_read"] <= 2 for r in results)
