"""E20 (extension) — binary wire protocol v2, pipelining, and batched
group commit.

Sixteen closed-loop sessions drive the embedded server over loopback
transports in four configurations:

- ``v2_strict``     — binary v2 frames, strict request/response per op
                      (the E15 configuration).
- ``v2_pipelined``  — binary v2 frames, 16 autocommit ops per pipeline
                      flush; the server drains each flush as one batch
                      (one admission pass; each commit in it forces
                      as it would alone).
- ``strict_priced`` / ``batched_priced`` — the strict and the pipelined
  configuration with the log flush *priced*
  (``log_flush_latency_seconds``, standing in for a real fsync on this
  tmpfs-backed box).

The strict and pipelined legs run three times each, alternated, and
are compared by their medians: one pair of runs on a loaded box moved
the ratio across the bar on its own.

Expected shape: pipelining beats the strict loop (fewer wakeups and
protocol round-trips per op), and batched execution pays a small
fraction of a synchronous force per write commit once the flush has a
price (one force per write commit is what no coalescing pays) and
beats the strict loop under the same price — the §1 synchronous-I/O
claim carried through the wire protocol.  A batch's commits run one
after another on its worker, so the saving comes from the sixteen
workers' commits sharing log writes: a commit that forces while a
write is in progress rides the next one.  The 3x headline bar needs
real parallel hardware (the engine alone saturates one core well below
3x E15's rate), so — as with E18's scaling bar — it arms only when
>= 4 CPUs are granted; the direction asserts unconditionally.

Every cell of the table is a wall clock or a count that depends on
timing, so both artifacts are git-ignored:
``results/e20_wire_protocol.clocks.txt`` (table) and
``results/e20_wire_protocol.clocks.json`` (machine-readable — the CI
smoke job uploads both).
"""

from __future__ import annotations

import json
import os
import statistics

from repro.common.config import DatabaseConfig
from repro.db import Database
from repro.harness.loadgen import LoadgenSpec, run_loadgen
from repro.harness.report import format_table
from repro.server import DatabaseServer, ServerConfig

from _common import RESULTS_DIR, write_result

SESSIONS = 16
REQUESTS_PER_SESSION = 250
PIPELINE_DEPTH = 16
#: Runs of each of the strict and pipelined legs, alternated.
RUNS = 3
#: Synthetic flush cost for the priced legs (200 us — the order of one
#: NVMe fsync; tmpfs makes real forces nearly free, which would hide
#: exactly the cost coalesced forces amortize).
FLUSH_LATENCY_SECONDS = 0.0002


def run_one(*, pipeline_depth: int, flush_latency: float = 0.0) -> dict:
    db = Database(
        DatabaseConfig(buffer_pool_pages=512, log_flush_latency_seconds=flush_latency)
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
    result["flush_latency_seconds"] = flush_latency
    result["drained_clean"] = drained
    result["engine_commits"] = delta.get("txn.committed", 0)
    result["write_commits"] = result["engine_commits"] - delta.get(
        "txn.readonly_commits", 0
    )
    result["sync_forces"] = delta.get("log.sync_forces", 0)
    result["server_batches"] = delta.get("server.batches", 0)
    result["server_batch_peak"] = delta.get("server.batch_peak", 0)
    return result


def run() -> dict:
    runs: dict = {"v2_strict": [], "v2_pipelined": []}
    for _ in range(RUNS):
        runs["v2_strict"].append(run_one(pipeline_depth=1))
        runs["v2_pipelined"].append(run_one(pipeline_depth=PIPELINE_DEPTH))
    return {
        "cpus": len(os.sched_getaffinity(0)),
        **runs,
        "strict_priced": run_one(pipeline_depth=1, flush_latency=FLUSH_LATENCY_SECONDS),
        "batched_priced": run_one(
            pipeline_depth=PIPELINE_DEPTH, flush_latency=FLUSH_LATENCY_SECONDS
        ),
    }


def median_throughput(runs: list[dict]) -> float:
    return statistics.median(r["throughput_rps"] for r in runs)


def test_e20_wire_protocol(benchmark):
    results = benchmark.pedantic(run, rounds=1, iterations=1)
    legs = [
        *(
            (f"{label}, run {i + 1}", r)
            for label, key in (
                ("v2 binary, strict loop", "v2_strict"),
                ("v2 binary, pipeline 16", "v2_pipelined"),
            )
            for i, r in enumerate(results[key])
        ),
        ("strict loop, priced flush", results["strict_priced"]),
        ("batched, priced flush", results["batched_priced"]),
    ]

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
            "batches",
        ],
        [
            (
                label,
                r["requests"],
                r["throughput_rps"],
                r["latency"].get("p50_ms", 0.0),
                r["latency"].get("p99_ms", 0.0),
                r["engine_commits"],
                r["write_commits"],
                r["sync_forces"],
                r["server_batches"],
            )
            for label, r in legs
        ],
        title=(
            f"E20 — wire protocol v2, {SESSIONS} sessions × "
            f"{REQUESTS_PER_SESSION} requests (loopback, "
            f"{results['cpus']} CPUs granted)"
        ),
    )
    write_result("e20_wire_protocol.clocks", table)
    (RESULTS_DIR / "e20_wire_protocol.clocks.json").write_text(
        json.dumps(results, indent=2) + "\n"
    )

    for label, r in legs:
        assert r["errors"] == {}, f"{label} workload errors: {r['errors']}"
        assert r["drained_clean"] is True
        # Pipelined workers round the request count up to whole
        # flushes, so the floor is the spec'd total, not equality.
        assert r["requests"] >= SESSIONS * REQUESTS_PER_SESSION

    strict = median_throughput(results["v2_strict"])
    piped = median_throughput(results["v2_pipelined"])
    for r in results["v2_pipelined"]:
        # Pipelined v2 actually exercised batch execution, not just a
        # fatter client buffer.
        assert r["server_batches"] > 0
        assert r["server_batch_peak"] >= 2
    # Direction asserts everywhere: pipelining must beat the strict
    # loop on the same hardware.
    assert piped > 1.1 * strict, (
        f"pipelined median {piped} req/s vs strict median {strict} req/s "
        "— pipelining bought too little"
    )
    # The issue's 3x headline needs parallel hardware (E18 precedent:
    # scaling bars arm only with real cores to scale onto).
    if results["cpus"] >= 4:
        assert piped >= 3.0 * strict

    priced = results["strict_priced"]
    batched = results["batched_priced"]
    # Batch execution pays a small fraction of one force per write
    # commit (what committing without coalescing pays)...
    assert batched["sync_forces"] * 5 < batched["write_commits"], (
        f"{batched['sync_forces']} batched forces for "
        f"{batched['write_commits']} write commits"
    )
    # ...and beats the strict loop once the flush has a price.
    assert batched["throughput_rps"] > priced["throughput_rps"], (
        f"batched {batched['throughput_rps']} req/s did not beat the "
        f"strict loop's {priced['throughput_rps']} req/s under a priced flush"
    )
