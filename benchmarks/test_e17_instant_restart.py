"""E17 — time-to-first-transaction: instant vs stop-the-world restart.

The claim of serve-while-recovering: stop-the-world restart keeps the
database dark for time proportional to the redo span, while instant
restart opens after analysis (bounded by the checkpoint interval) plus
one frame-validation walk of the log, recovering pages on demand.  So
as the committed-but-unflushed log grows,

- stop-the-world TTFT grows linearly with log size,
- instant TTFT stays near-constant (sublinear: only the CRC walk and
  the handful of pages the first transaction touches scale),
- at the largest log size instant is >= 10x faster to first commit,
- the background drain then retires the remaining redo backlog.

TTFT here is restart-call to completion of a first real transaction
(an indexed fetch), i.e. the full dark window an application sees.
"""

import gc
import json
import time

from repro.common.config import DatabaseConfig
from repro.db import Database
from repro.harness.report import format_table

from _common import RESULTS_DIR, write_result

SIZES = (500, 2000, 8000)


def build_crashed(rows: int) -> Database:
    """A database whose log carries ``rows`` committed-but-unflushed
    inserts past the last flush: periodic fuzzy checkpoints keep the
    analysis span short, but the dirty pages' recLSNs reach far back,
    so the *redo* span covers nearly the whole load."""
    db = Database(
        DatabaseConfig(
            page_size=1024,
            buffer_pool_pages=4096,
            checkpoint_interval_records=500,
        )
    )
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    with db.transaction() as txn:
        for i in range(50):
            db.insert(txn, "t", {"id": i, "v": "seed" * 8})
    db.flush_all_pages()
    db.checkpoint()
    for i in range(50, rows):
        with db.transaction() as txn:
            db.insert(txn, "t", {"id": i, "v": "payload" * 12})
    db.crash()
    return db


def first_txn(db: Database) -> None:
    with db.transaction() as txn:
        assert db.fetch(txn, "t", "by_id", 0) is not None


def measure(rows: int) -> dict:
    # Each timed leg starts with an empty cyclic-GC backlog, so neither
    # pays for the garbage building the crashed image left behind.
    db = build_crashed(rows)
    gc.collect()
    start = time.monotonic()
    db.restart()
    first_txn(db)
    stw = time.monotonic() - start
    db.close()

    db = build_crashed(rows)
    gc.collect()
    start = time.monotonic()
    report = db.instant_restart()
    first_txn(db)
    instant = time.monotonic() - start
    start = time.monotonic()
    assert report.governor.wait_drained(timeout=120.0)
    drain = time.monotonic() - start
    assert db.verify_indexes() == {}
    with db.transaction() as txn:
        count = sum(1 for _ in db.scan(txn, "t", "by_id"))
    assert count == rows
    db.close()
    return {
        "rows": rows,
        "stw_ttft_ms": round(stw * 1000, 1),
        "instant_ttft_ms": round(instant * 1000, 1),
        "speedup": round(stw / instant, 1),
        "drain_ms": round(drain * 1000, 1),
    }


def test_e17_instant_restart(benchmark):
    results = benchmark.pedantic(
        lambda: [measure(n) for n in SIZES], rounds=1, iterations=1
    )
    table = format_table(
        ["log size (rows)", "stop-the-world TTFT (ms)", "instant TTFT (ms)",
         "speedup", "background drain (ms)"],
        [
            (r["rows"], r["stw_ttft_ms"], r["instant_ttft_ms"],
             f"{r['speedup']}x", r["drain_ms"])
            for r in results
        ],
        title="E17 — time-to-first-transaction vs log size",
    )
    write_result("e17_instant_restart", table)
    RESULTS_DIR.joinpath("e17_instant_restart.json").write_text(
        json.dumps(results, indent=2) + "\n"
    )

    # Shape claims, not absolutes.
    assert all(r["instant_ttft_ms"] < r["stw_ttft_ms"] for r in results)
    largest = results[-1]
    assert largest["speedup"] >= 10.0, largest
    # Near-constant: a 16x bigger log must not cost anywhere near 16x
    # more instant TTFT (stop-the-world, by contrast, scales ~linearly).
    size_ratio = SIZES[-1] / SIZES[0]
    ttft_ratio = largest["instant_ttft_ms"] / max(results[0]["instant_ttft_ms"], 1e-3)
    assert ttft_ratio < size_ratio * 0.75, (ttft_ratio, size_ratio)
