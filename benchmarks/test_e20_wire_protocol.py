"""E20 (extension) — binary wire protocol v2, pipelining, and batched
group commit.

Sixteen closed-loop sessions drive the embedded server over loopback
transports in four configurations:

- ``v2_strict``     — binary v2 frames, strict request/response per op
                      (the E15 configuration).
- ``v2_pipelined``  — binary v2 frames, 16 autocommit ops per pipeline
                      flush; the server drains each flush as one batch
                      (one admission pass, commits coalesced into one
                      force).
- ``force_per_commit`` / ``batched_group_commit`` — the same workload
  with the log flush *priced* (``log_flush_latency_seconds``, standing
  in for a real fsync on this tmpfs-backed box), once paying a
  synchronous force per writing commit and once with pipelined batch
  execution plus group commit coalescing the forces.

Expected shape: pipelining beats the strict loop (fewer wakeups and
protocol round-trips per op), and batched group commit strictly
dominates force-per-commit once the flush has a price — the §1
synchronous-I/O claim carried through the wire protocol.  The 3x
headline bar from the issue needs real parallel hardware (the engine
alone saturates one core well below 3x E15's rate), so — as with E18's
scaling bar — it arms only when >= 4 CPUs are granted; the direction
asserts unconditionally.

Artifacts: ``results/e20_wire_protocol.txt`` (table) and
``results/e20_wire_protocol.json`` (machine-readable — the CI smoke
job uploads it).
"""

from __future__ import annotations

import json
import os

from repro.common.config import DatabaseConfig
from repro.db import Database
from repro.harness.loadgen import LoadgenSpec, run_loadgen
from repro.harness.report import format_table
from repro.server import DatabaseServer, ServerConfig

from _common import RESULTS_DIR, write_result

SESSIONS = 16
REQUESTS_PER_SESSION = 250
PIPELINE_DEPTH = 16
#: Synthetic flush cost for the group-commit comparison (200 us — the
#: order of one NVMe fsync; tmpfs makes real forces nearly free, which
#: would hide exactly the cost group commit exists to amortize).
FLUSH_LATENCY_SECONDS = 0.0002


def run_one(
    *,
    pipeline_depth: int,
    group_commit: bool,
    flush_latency: float = 0.0,
) -> dict:
    db = Database(
        DatabaseConfig(
            buffer_pool_pages=512,
            group_commit=group_commit,
            group_commit_max_wait_seconds=0.001,
            log_flush_latency_seconds=flush_latency,
        )
    )
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    server = DatabaseServer(
        db, ServerConfig(workers=SESSIONS, queue_depth=SESSIONS * 16)
    ).start(listen=False)
    spec = LoadgenSpec(
        workers=SESSIONS,
        requests_per_worker=REQUESTS_PER_SESSION,
        key_space=4000,
        pipeline_depth=pipeline_depth,
    )
    before = db.stats.snapshot()
    report = run_loadgen(server.connect_loopback, spec)
    delta = db.stats.diff(before)
    drained = server.shutdown(drain=True)
    db.close()
    result = report.to_dict()
    result["pipeline_depth"] = pipeline_depth
    result["group_commit"] = group_commit
    result["flush_latency_seconds"] = flush_latency
    result["drained_clean"] = drained
    result["engine_commits"] = delta.get("txn.committed", 0)
    result["deferred_commits"] = delta.get("txn.deferred_commits", 0)
    result["sync_forces"] = delta.get("log.sync_forces", 0)
    result["server_batches"] = delta.get("server.batches", 0)
    result["server_batch_peak"] = delta.get("server.batch_peak", 0)
    return result


def run() -> dict:
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "v2_strict": run_one(pipeline_depth=1, group_commit=True),
        "v2_pipelined": run_one(
            pipeline_depth=PIPELINE_DEPTH,
            group_commit=True,
        ),
        "force_per_commit": run_one(
            pipeline_depth=1,
            group_commit=False,
            flush_latency=FLUSH_LATENCY_SECONDS,
        ),
        "batched_group_commit": run_one(
            pipeline_depth=PIPELINE_DEPTH,
            group_commit=True,
            flush_latency=FLUSH_LATENCY_SECONDS,
        ),
    }


def test_e20_wire_protocol(benchmark):
    results = benchmark.pedantic(run, rounds=1, iterations=1)
    legs = (
        ("v2 binary, strict loop", "v2_strict"),
        ("v2 binary, pipeline 16", "v2_pipelined"),
        ("force per commit (priced flush)", "force_per_commit"),
        ("batched group commit (priced flush)", "batched_group_commit"),
    )

    rows = []
    for label, key in legs:
        r = results[key]
        rows.append(
            (
                label,
                r["requests"],
                r["throughput_rps"],
                r["latency"].get("p50_ms", 0.0),
                r["latency"].get("p99_ms", 0.0),
                r["engine_commits"],
                r["sync_forces"],
                r["server_batches"],
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
            "sync forces",
            "batches",
        ],
        rows,
        title=(
            f"E20 — wire protocol v2, {SESSIONS} sessions × "
            f"{REQUESTS_PER_SESSION} requests (loopback, "
            f"{results['cpus']} CPUs granted)"
        ),
    )
    write_result("e20_wire_protocol", table)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "e20_wire_protocol.json").write_text(
        json.dumps(results, indent=2) + "\n"
    )

    for _, key in legs:
        r = results[key]
        assert r["errors"] == {}, f"{key} workload errors: {r['errors']}"
        assert r["drained_clean"] is True
        # Pipelined workers round the request count up to whole
        # flushes, so the floor is the spec'd total, not equality.
        assert r["requests"] >= SESSIONS * REQUESTS_PER_SESSION

    strict = results["v2_strict"]
    piped = results["v2_pipelined"]
    # Pipelined v2 actually exercised batch execution and deferred
    # commits, not just a fatter client buffer.
    assert piped["server_batches"] > 0
    assert piped["server_batch_peak"] >= 2
    assert piped["deferred_commits"] > 0
    # Direction asserts everywhere: pipelining must beat the strict
    # loop on the same hardware.
    assert piped["throughput_rps"] > 1.1 * strict["throughput_rps"], (
        f"pipelined {piped['throughput_rps']} req/s vs strict "
        f"{strict['throughput_rps']} req/s — pipelining bought too little"
    )
    # The issue's 3x headline needs parallel hardware (E18 precedent:
    # scaling bars arm only with real cores to scale onto).
    if results["cpus"] >= 4:
        assert piped["throughput_rps"] >= 3.0 * strict["throughput_rps"]

    force = results["force_per_commit"]
    grouped = results["batched_group_commit"]
    # Group commit under batch execution pays far fewer forces...
    assert grouped["sync_forces"] * 5 < force["sync_forces"], (
        f"{grouped['sync_forces']} grouped forces vs "
        f"{force['sync_forces']} per-commit forces"
    )
    # ...and strictly dominates once the flush has a price.
    assert grouped["throughput_rps"] > force["throughput_rps"], (
        f"group commit {grouped['throughput_rps']} req/s did not beat "
        f"force-per-commit {force['throughput_rps']} req/s"
    )
