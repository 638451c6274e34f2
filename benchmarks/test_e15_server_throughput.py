"""E15 (extension) — server throughput and group commit's I/O saving.

Sixteen closed-loop client sessions drive the embedded server through
the in-process loopback transport with a mixed workload, once with the
commit force per transaction (baseline) and once with group commit
coalescing the forces into batched flushes.  Both legs price the log
flush (``log_flush_latency_seconds``, E20's 200 us): group commit waits
for partners at most one flush's price, so under a free flush it
rightly forces each commit at once and there would be nothing to save.

Expected shape: the workload completes with zero errors either way;
the baseline pays about one synchronous force per *write* commit
(read-only commits log nothing and force nothing); with group commit
on, the number of synchronous log flushes falls to well under half the
write commits (each leader's flush covers the committers parked behind
it), which is the §1 synchronous-I/O measure this subsystem targets.

Artifacts: ``results/e15_server_throughput.txt`` (table) and
``results/e15_server_throughput.json`` (machine-readable — the CI smoke
job uploads it).
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


def run_one(group_commit: bool) -> dict:
    db = Database(
        DatabaseConfig(
            buffer_pool_pages=512,
            group_commit=group_commit,
            group_commit_max_wait_seconds=0.001,
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
    result["group_commit"] = group_commit
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


def run() -> dict:
    return {"baseline": run_one(False), "group_commit": run_one(True)}


def test_e15_server_throughput(benchmark):
    results = benchmark.pedantic(run, rounds=1, iterations=1)
    base, grouped = results["baseline"], results["group_commit"]

    rows = []
    for label, r in (("force per commit", base), ("group commit", grouped)):
        rows.append(
            (
                label,
                r["requests"],
                r["throughput_rps"],
                r["latency"].get("p50_ms", 0.0),
                r["latency"].get("p99_ms", 0.0),
                r["engine_commits"],
                r["write_commits"],
                r["sync_forces"],
                r["flushes_saved"],
            )
        )
    table = format_table(
        [
            "mode",
            "requests",
            "req/s",
            "p50 ms",
            "p99 ms",
            "commits",
            "write commits",
            "sync forces",
            "flushes saved",
        ],
        rows,
        title=(
            f"E15 — server throughput, {SESSIONS} sessions × "
            f"{REQUESTS_PER_SESSION} requests (loopback, "
            f"{FLUSH_LATENCY_SECONDS * 1e6:.0f} us flush)"
        ),
    )
    write_result("e15_server_throughput", table)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "e15_server_throughput.json").write_text(
        json.dumps(results, indent=2) + "\n"
    )

    for r in (base, grouped):
        assert r["errors"] == {}, f"workload errors: {r['errors']}"
        assert r["drained_clean"] is True
        assert r["requests"] == SESSIONS * REQUESTS_PER_SESSION
    # Baseline pays roughly one synchronous force per write commit.
    assert base["sync_forces"] >= 0.9 * base["write_commits"]
    # The acceptance criterion: group commit coalesces to well under
    # half a flush per write commit at 16 concurrent sessions.
    assert grouped["sync_forces"] < 0.5 * grouped["write_commits"], (
        f"{grouped['sync_forces']} forces for {grouped['write_commits']} "
        "write commits — group commit saved too little"
    )
    assert grouped["flushes_saved"] > 0
