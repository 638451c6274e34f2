"""E19 — multiversion snapshot reads vs locked reads.

The paper's lock-count measure (§5) taken to its limit: a snapshot
read acquires **zero** record locks and zero next-key locks — latches
only — where every locking protocol pays at least one lock per fetch
and one per row plus a next-key lock per range scan.  Three parts:

1. lock requests per fetch / 10-key scan: snapshot mode vs each
   compared locking protocol (snapshot must be exactly 0);
2. writer throughput with MVCC on vs off — the version stamps and
   dead-key bookkeeping must cost the write path under 10%;
3. reader/writer interference: a snapshot read of a key an open
   transaction has deleted completes immediately (no lock wait),
   where a locking read would block until commit.
"""

import time

from repro.common.config import DatabaseConfig
from repro.db import Database
from repro.baselines import COMPARED_PROTOCOLS
from repro.harness.report import format_table

from _common import write_result

WRITER_ROUNDS = 5
WRITER_OPS = 300


def build(protocol: str = COMPARED_PROTOCOLS[0], mvcc: bool = True) -> Database:
    db = Database(DatabaseConfig(mvcc_enabled=mvcc))
    db.create_table("t")
    db.create_index("t", "by_a", column="a", unique=True, protocol=protocol)
    txn = db.begin()
    for key in range(0, 400, 2):
        db.insert(txn, "t", {"a": key, "pad": "v"})
    db.commit(txn)
    return db


def lock_requests_during(db, fn) -> int:
    before = db.stats.snapshot()
    fn()
    delta = db.stats.diff(before)
    return sum(v for k, v in delta.items() if k.startswith("lock.requests."))


def measure_locked(protocol: str) -> dict:
    db = build(protocol)

    def in_txn(op):
        txn = db.begin()
        op(txn)
        db.commit(txn)

    counts = {
        "fetch": lock_requests_during(
            db, lambda: in_txn(lambda t: db.fetch(t, "t", "by_a", 100))
        ),
        "scan10": lock_requests_during(
            db,
            lambda: in_txn(
                lambda t: sum(1 for _ in db.scan(t, "t", "by_a", low=200, high=218))
            ),
        ),
    }
    db.close()
    return counts


def measure_snapshot() -> dict:
    db = build()
    with db.snapshot() as snap:
        counts = {
            "fetch": lock_requests_during(
                db, lambda: db.fetch(snap, "t", "by_a", 100)
            ),
            "scan10": lock_requests_during(
                db,
                lambda: sum(
                    1 for _ in db.scan(snap, "t", "by_a", low=200, high=218)
                ),
            ),
        }
    db.close()
    return counts


def _writer_round(mvcc: bool) -> float:
    """CPU seconds of one insert+delete churn on a fresh database."""
    db = build(mvcc=mvcc)
    start = time.thread_time()
    for i in range(WRITER_OPS):
        key = 1001 + i
        txn = db.begin()
        db.insert(txn, "t", {"a": key, "pad": "v"})
        db.commit(txn)
        txn = db.begin()
        db.delete_by_key(txn, "t", "by_a", key)
        db.commit(txn)
    elapsed = time.thread_time() - start
    db.close()
    return elapsed


def writer_seconds() -> tuple[float, float]:
    """(MVCC on, MVCC off): best of WRITER_ROUNDS each (min damps
    noise).  The two sides alternate round by round, so a change of
    host speed lands on both, and each round is timed in the thread's
    CPU time, so time the host gives to other work is not counted."""
    best = {True: float("inf"), False: float("inf")}
    for round_no in range(WRITER_ROUNDS):
        order = (True, False) if round_no % 2 == 0 else (False, True)
        for mvcc in order:
            best[mvcc] = min(best[mvcc], _writer_round(mvcc))
    return best[True], best[False]


def reader_blocking() -> dict:
    """Seconds a read of a key deleted by an OPEN transaction takes:
    snapshot mode answers from the ghost version immediately."""
    db = build()
    writer = db.begin()
    db.delete_by_key(writer, "t", "by_a", 100)
    start = time.perf_counter()
    with db.snapshot() as snap:
        row = db.fetch(snap, "t", "by_a", 100)
    elapsed = time.perf_counter() - start
    assert row is not None, "snapshot must see the pre-delete version"
    db.rollback(writer)
    db.close()
    return {"snapshot_read_s": elapsed}


def test_e19_mvcc(benchmark):
    def run():
        return {
            "snapshot": measure_snapshot(),
            "locked": {p: measure_locked(p) for p in COMPARED_PROTOCOLS},
            "writer_s": writer_seconds(),
            "interference": reader_blocking(),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        ("mvcc_snapshot", results["snapshot"]["fetch"], results["snapshot"]["scan10"])
    ] + [
        (p, results["locked"][p]["fetch"], results["locked"][p]["scan10"])
        for p in COMPARED_PROTOCOLS
    ]
    lock_table = format_table(
        ["read mode", "fetch", "scan-10"],
        rows,
        title="E19 — lock requests per read operation",
    )
    mvcc_s, plain_s = results["writer_s"]
    overhead = (mvcc_s - plain_s) / plain_s * 100.0
    writer_table = format_table(
        ["write path", f"CPU seconds ({WRITER_OPS} insert+delete)", "overhead"],
        [
            ("mvcc off", f"{plain_s:.4f}", "-"),
            ("mvcc on", f"{mvcc_s:.4f}", f"{overhead:+.1f}%"),
        ],
        title="E19 — writer throughput, version stamping on vs off",
    )
    interference = format_table(
        ["measure", "seconds"],
        [
            (
                "snapshot read of key deleted by open txn",
                f"{results['interference']['snapshot_read_s']:.6f}",
            )
        ],
        title="E19 — reader/writer interference",
    )
    write_result("e19_mvcc", "\n\n".join([lock_table, writer_table, interference]))

    # The tentpole claim: the snapshot read path takes ZERO locks.
    assert results["snapshot"]["fetch"] == 0
    assert results["snapshot"]["scan10"] == 0
    # Every locking protocol pays at least one lock per read.
    for protocol in COMPARED_PROTOCOLS:
        assert results["locked"][protocol]["fetch"] > 0, protocol
        assert results["locked"][protocol]["scan10"] > 0, protocol
    # Version stamping must not tax the writer more than 10%.
    assert overhead < 10.0, f"writer overhead {overhead:.1f}% >= 10%"
    # A snapshot read never waits on a writer's lock.
    assert results["interference"]["snapshot_read_s"] < 0.5
