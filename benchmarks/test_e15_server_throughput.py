"""E15 (extension) — server throughput and coalesced commit forces.

Sixteen closed-loop client sessions drive the embedded server through
the in-process loopback transport with a mixed workload.  The log flush
is priced (``log_flush_latency_seconds``, E20's 200 us): commits share
a write only by queueing behind one in progress, so under a free flush
almost every commit would write at once and there would be nothing to
save.

Expected shape: the workload completes with zero errors; paying one
synchronous force per *write* commit (read-only commits log nothing and
force nothing) is the cost without coalescing, and the number of
synchronous log writes falls to well under half the write commits (each
write covers the committers queued behind the one before it), which is
the §1 synchronous-I/O measure this subsystem targets.

Every cell of the table is a wall clock or a count that depends on
timing, so both artifacts are git-ignored:
``results/e15_server_throughput.clocks.txt`` (table) and
``results/e15_server_throughput.clocks.json`` (machine-readable — the
CI smoke job uploads both).
"""

from __future__ import annotations

import json

from repro.common.config import DatabaseConfig
from repro.db import Database
from repro.harness.loadgen import LoadgenSpec, run_loadgen
from repro.harness.report import format_table
from repro.server import DatabaseServer, ServerConfig

from _common import RESULTS_DIR, write_result

SESSIONS = 16
REQUESTS_PER_SESSION = 120
#: Synthetic flush cost, as in E20 (the order of one NVMe fsync).
FLUSH_LATENCY_SECONDS = 0.0002


def run() -> dict:
    db = Database(
        DatabaseConfig(
            buffer_pool_pages=512,
            log_flush_latency_seconds=FLUSH_LATENCY_SECONDS,
        )
    )
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    server = DatabaseServer(
        db, ServerConfig(workers=SESSIONS, queue_depth=SESSIONS * 4)
    ).start(listen=False)
    spec = LoadgenSpec(
        workers=SESSIONS,
        requests_per_worker=REQUESTS_PER_SESSION,
        key_space=4000,
    )
    before = db.stats.snapshot()
    report = run_loadgen(server.connect_loopback, spec)
    delta = db.stats.diff(before)
    drained = server.shutdown(drain=True)
    db.close()
    result = report.to_dict()
    result["drained_clean"] = drained
    result["engine_commits"] = delta.get("txn.committed", 0)
    result["write_commits"] = result["engine_commits"] - delta.get(
        "txn.readonly_commits", 0
    )
    result["sync_forces"] = delta.get("log.sync_forces", 0)
    result["group_commit_batches"] = delta.get("log.group_commit_batches", 0)
    result["flushes_saved"] = delta.get("log.group_commit_flushes_saved", 0)
    result["latency_histogram"] = report.latency.histogram()
    return result


def test_e15_server_throughput(benchmark):
    r = benchmark.pedantic(run, rounds=1, iterations=1)

    table = format_table(
        [
            "requests",
            "req/s",
            "p50 ms",
            "p99 ms",
            "commits",
            "write commits",
            "sync forces",
            "flushes saved",
        ],
        [
            (
                r["requests"],
                r["throughput_rps"],
                r["latency"].get("p50_ms", 0.0),
                r["latency"].get("p99_ms", 0.0),
                r["engine_commits"],
                r["write_commits"],
                r["sync_forces"],
                r["flushes_saved"],
            )
        ],
        title=(
            f"E15 — server throughput, {SESSIONS} sessions × "
            f"{REQUESTS_PER_SESSION} requests (loopback, "
            f"{FLUSH_LATENCY_SECONDS * 1e6:.0f} us flush)"
        ),
    )
    write_result("e15_server_throughput.clocks", table)
    (RESULTS_DIR / "e15_server_throughput.clocks.json").write_text(
        json.dumps(r, indent=2) + "\n"
    )

    assert r["errors"] == {}, f"workload errors: {r['errors']}"
    assert r["drained_clean"] is True
    assert r["requests"] == SESSIONS * REQUESTS_PER_SESSION
    # The acceptance criterion: at 16 concurrent sessions the forces
    # coalesce to well under half a write per write commit (one force
    # per write commit is what no coalescing pays).
    assert r["sync_forces"] < 0.5 * r["write_commits"], (
        f"{r['sync_forces']} forces for {r['write_commits']} "
        "write commits — coalescing saved too little"
    )
    assert r["flushes_saved"] > 0
