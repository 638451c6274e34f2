"""E16 (extension) — replication lag, sync-commit cost, failover time.

Three measurements over the log-shipping subsystem:

1. **Lag vs load** — closed-loop client sessions drive a replicated
   primary while a sampler records the hot standby's byte lag; after
   the load stops, the time for the standby to drain to the primary's
   flushed LSN is the catch-up figure.
2. **Async vs sync commit latency** — the same single-session insert
   workload with asynchronous shipping and with the synchronous commit
   gate (ack held until the standby has the commit record durable).
   Sync buys the no-lost-acked-commit guarantee of the failover
   torture's ``sync`` mode; this measures what it costs per commit.
   Each leg runs three times, alternated, and the gate compares the
   medians of their means: one short leg each flapped the ratio
   whenever the interpreter ran slower.
3. **Failover time** — crash the primary mid-fleet, drain the durable
   WAL, promote the standby (full ARIES restart), and serve the first
   read — the end-to-end unavailability window.

Expected shape: zero workload errors; the standby always drains to lag
0 after load; sync commits carry bounded overhead — on a loopback,
colocated standby the ship+ack round trip is short next to the rest of
a commit, so the guarantee is checked directly (the acked position
covers the whole durable prefix, zero gate timeouts) rather than by a
fragile latency ordering; failover completes in low
single-digit seconds with every replicated row served by the new
primary.

Artifacts: ``results/e16_replication.txt`` (tables) and
``results/e16_replication.json``.
"""

from __future__ import annotations

import json
import statistics
import threading
import time

from repro.common.config import DatabaseConfig
from repro.db import Database
from repro.harness.loadgen import LoadgenSpec, run_loadgen
from repro.harness.report import format_table
from repro.replication import Standby
from repro.server import DatabaseServer, ServerConfig

from _common import RESULTS_DIR, write_result

LOAD_SESSIONS = (2, 8)
REQUESTS_PER_SESSION = 100
LATENCY_OPS = 150
#: Runs of each commit-latency leg, alternated.
LATENCY_RUNS = 3
FAILOVER_ROWS = 400


def make_replicated_pair(sync: bool = False):
    db = Database(DatabaseConfig(buffer_pool_pages=512))
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    db.enable_replication(sync=sync, sync_timeout_seconds=10.0)
    server = DatabaseServer(
        db, ServerConfig(workers=16, queue_depth=64)
    ).start(listen=False)
    standby = Standby(
        lambda: server.connect_loopback(),
        name="bench",
        poll_wait_seconds=0.02,
    ).start()
    return db, server, standby


def teardown(db, server, standby) -> None:
    standby.close()
    server.shutdown(drain=True)
    db.close()


# -- 1. lag vs load ---------------------------------------------------------


def run_lag_level(sessions: int) -> dict:
    db, server, standby = make_replicated_pair()
    samples: list[int] = []
    done = threading.Event()

    def sampler() -> None:
        # Primary-side truth: durable bytes the standby does not have
        # yet (standby.lag_bytes() is the standby's own view, which is
        # only as fresh as its last poll response).
        while not done.is_set():
            samples.append(
                max(db.log.flushed_lsn - standby.db.log.flushed_lsn, 0)
            )
            time.sleep(0.002)

    thread = threading.Thread(target=sampler, daemon=True)
    thread.start()
    spec = LoadgenSpec(
        workers=sessions,
        requests_per_worker=REQUESTS_PER_SESSION,
        key_space=4000,
        seed=sessions,
    )
    report = run_loadgen(server.connect_loopback, spec)
    target = db.log.flushed_lsn
    t0 = time.perf_counter()
    drained = standby.wait_for_lsn(target, timeout=30.0)
    catchup_ms = (time.perf_counter() - t0) * 1000
    done.set()
    thread.join(timeout=1.0)
    result = {
        "sessions": sessions,
        "requests": report.requests,
        "throughput_rps": report.throughput_rps,
        "errors": report.errors,
        "max_lag_bytes": max(samples, default=0),
        "mean_lag_bytes": sum(samples) // max(len(samples), 1),
        "samples": len(samples),
        "catchup_ms": round(catchup_ms, 2),
        "drained": drained,
        "final_lag_bytes": standby.lag_bytes(),
        "records_replayed": standby.db.stats.snapshot().get(
            "standby.records_replayed", 0
        ),
    }
    teardown(db, server, standby)
    return result


# -- 2. async vs sync commit latency ---------------------------------------


def run_commit_latency(sync: bool) -> dict:
    db, server, standby = make_replicated_pair(sync=sync)
    client = server.connect_loopback()
    latencies: list[float] = []
    for i in range(LATENCY_OPS):
        t0 = time.perf_counter()
        client.insert("t", {"id": i, "val": "x"})
        latencies.append((time.perf_counter() - t0) * 1000)
    client.close()
    latencies.sort()
    result = {
        "sync": sync,
        "ops": len(latencies),
        "mean_ms": round(sum(latencies) / len(latencies), 3),
        "p50_ms": round(latencies[len(latencies) // 2], 3),
        "p99_ms": round(latencies[int(len(latencies) * 0.99)], 3),
        "min_acked": db.replication.min_acked(),
        "flushed_lsn": db.log.flushed_lsn,
        "sync_timeouts": db.stats.snapshot().get("repl.sync_timeouts", 0),
    }
    teardown(db, server, standby)
    return result


# -- 3. failover time -------------------------------------------------------


def run_failover_timing() -> dict:
    db, server, standby = make_replicated_pair()
    with server.connect_loopback() as client:
        for i in range(FAILOVER_ROWS):
            client.insert("t", {"id": i, "val": f"r{i}"})
    assert standby.wait_for_lsn(db.log.flushed_lsn, timeout=30.0)

    t0 = time.perf_counter()
    db.crash()
    drained = standby.wait_for_lsn(db.log.flushed_lsn, timeout=30.0)
    server.abort()
    t_promote = time.perf_counter()
    report = standby.promote()
    promote_ms = (time.perf_counter() - t_promote) * 1000
    promoted = standby.db
    txn = promoted.begin()
    first_read = promoted.fetch(txn, "t", "by_id", FAILOVER_ROWS - 1)
    promoted.commit(txn)
    total_ms = (time.perf_counter() - t0) * 1000

    txn = promoted.begin()
    rows = sum(1 for _ in promoted.scan(txn, "t", "by_id"))
    promoted.commit(txn)
    result = {
        "rows": rows,
        "expected_rows": FAILOVER_ROWS,
        "drained": drained,
        "failover_ms": round(total_ms, 2),
        "promote_ms": round(promote_ms, 2),
        "first_read_ok": first_read is not None,
        "redo_records": report.redo.records_redone,
        "losers_undone": report.undo.transactions_rolled_back,
        "records_replayed": promoted.stats.snapshot().get(
            "standby.records_replayed", 0
        ),
    }
    promoted.close()
    return result


def run_commit_latencies() -> dict:
    runs: dict = {"async": [], "sync": []}
    for _ in range(LATENCY_RUNS):
        runs["sync"].append(run_commit_latency(True))
        runs["async"].append(run_commit_latency(False))
    return runs


def median_mean_ms(runs: list[dict]) -> float:
    return statistics.median(r["mean_ms"] for r in runs)


def run() -> dict:
    return {
        "lag": [run_lag_level(n) for n in LOAD_SESSIONS],
        "commit_latency": run_commit_latencies(),
        "failover": run_failover_timing(),
    }


def test_e16_replication(benchmark):
    results = benchmark.pedantic(run, rounds=1, iterations=1)

    lag_table = format_table(
        ["sessions", "req/s", "max lag B", "mean lag B", "catch-up ms"],
        [
            (
                r["sessions"],
                round(r["throughput_rps"]),
                r["max_lag_bytes"],
                r["mean_lag_bytes"],
                r["catchup_ms"],
            )
            for r in results["lag"]
        ],
        title=(
            f"E16a — standby lag under load "
            f"({REQUESTS_PER_SESSION} requests/session, loopback)"
        ),
    )
    lat = results["commit_latency"]
    lat_table = format_table(
        ["mode", "ops", "mean ms", "p50 ms", "p99 ms"],
        [
            (
                f"{label}, run {i + 1}",
                r["ops"],
                r["mean_ms"],
                r["p50_ms"],
                r["p99_ms"],
            )
            for label in ("async", "sync")
            for i, r in enumerate(lat[label])
        ],
        title="E16b — commit latency, async shipping vs sync gate",
    )
    fo = results["failover"]
    fo_table = format_table(
        ["rows", "failover ms", "promote ms", "redo", "losers"],
        [
            (
                fo["rows"],
                fo["failover_ms"],
                fo["promote_ms"],
                fo["redo_records"],
                fo["losers_undone"],
            )
        ],
        title="E16c — failover: crash → drain → promote → first read",
    )
    write_result(
        "e16_replication", "\n\n".join((lag_table, lat_table, fo_table))
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "e16_replication.json").write_text(
        json.dumps(results, indent=2) + "\n"
    )

    for r in results["lag"]:
        assert r["errors"] == {}, f"workload errors: {r['errors']}"
        assert r["drained"], "standby never caught up after load"
        assert r["final_lag_bytes"] == 0
        assert r["records_replayed"] > 0
    # The sync gate's overhead is bounded: on loopback the ship+ack
    # round trip is short, so sync must land within a small factor of
    # async (not a strict ordering).
    sync_ms, async_ms = median_mean_ms(lat["sync"]), median_mean_ms(lat["async"])
    assert sync_ms <= 5 * async_ms, (
        f"sync median {sync_ms}ms vs async median {async_ms}ms "
        "— the sync gate costs too much"
    )
    # Sync mode's invariant, checked directly: every acked commit is
    # standby-durable, and no commit ever hit the gate timeout.
    for r in lat["sync"]:
        assert r["min_acked"] >= r["flushed_lsn"]
        assert r["sync_timeouts"] == 0
    assert fo["drained"] and fo["first_read_ok"]
    assert fo["rows"] == fo["expected_rows"]
    assert fo["failover_ms"] < 5000, f"failover took {fo['failover_ms']}ms"
