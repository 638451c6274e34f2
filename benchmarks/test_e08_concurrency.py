"""E8 — the [KuPa79] concurrency measure + multithreaded throughput.

Part 1 counts *permitted interleavings* of canonical two-transaction
conflict scenarios (the paper's qualitative measure: more permitted
interleavings = more concurrency), per protocol.

Part 2 measures committed transactions per second with N threads on a
contended mixed workload, per protocol.

Expected shape: ARIES/IM data-only permits at least as many
interleavings as every baseline in every scenario (strictly more in
several), and its throughput under contention is at least comparable
(the lock-footprint advantage shows up as fewer blocked pairs).
"""

import threading
import time

from repro.btree.protocol import COMPARED_PROTOCOLS
from repro.harness.interleave import (
    interleaving_table,
    nonunique_interleaving_table,
)
from repro.harness.report import format_table
from repro.harness.workload import (
    WorkloadSpec,
    generate_operations,
    make_database,
    run_operations,
)

from _common import write_result

THREADS = 4
OPS_PER_THREAD = 120


def throughput(protocol: str) -> dict:
    spec = WorkloadSpec(
        n_initial=500,
        key_space=2_000,
        seed=13,
        hot_fraction=0.3,
        hot_range=64,
    )
    db = make_database(spec, protocol=protocol)
    results = []
    lock = threading.Lock()

    def worker(worker_id: int):
        ops = generate_operations(spec, OPS_PER_THREAD, seed_offset=worker_id)
        outcome = run_operations(db, spec, ops, seed_offset=worker_id)
        with lock:
            results.append(outcome)

    start = time.monotonic()
    threads = [threading.Thread(target=worker, args=(i,)) for i in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.monotonic() - start
    committed = sum(r.committed for r in results)
    blocked = db.stats.get("lock.waits")
    assert db.verify_indexes() == {}
    return {
        "txn_per_second": round(committed / elapsed, 1),
        "committed": committed,
        "deadlocks": sum(r.deadlocks for r in results),
        "lock_waits": blocked,
    }


def test_e08_interleavings(benchmark):
    table_data = benchmark.pedantic(
        lambda: interleaving_table(COMPARED_PROTOCOLS), rounds=1, iterations=1
    )
    rows = [
        (name, *[cells[p] for p in COMPARED_PROTOCOLS]) for name, cells in table_data
    ]
    table = format_table(
        ["scenario"] + COMPARED_PROTOCOLS,
        rows,
        title="E8a — permitted interleavings (permitted/total), per protocol",
    )
    write_result("e08a_interleavings", table)

    strictly_better = 0
    for name, cells in table_data:
        im = int(cells["aries_im_data_only"].split("/")[0])
        for protocol in COMPARED_PROTOCOLS[1:]:
            other = int(cells[protocol].split("/")[0])
            assert im >= other, f"{name}: {protocol} permits more than ARIES/IM"
            if im > other:
                strictly_better += 1
    assert strictly_better > 0, "ARIES/IM should be strictly ahead somewhere"


def test_e08_nonunique_interleavings(benchmark):
    """§1's headline for nonunique indexes: KVL's value-level locks
    serialize operations on *different duplicates*; ARIES/IM's
    key-level (= record) locks do not."""
    table_data = benchmark.pedantic(
        lambda: nonunique_interleaving_table(COMPARED_PROTOCOLS),
        rounds=1,
        iterations=1,
    )
    rows = [
        (name, *[cells[p] for p in COMPARED_PROTOCOLS]) for name, cells in table_data
    ]
    table = format_table(
        ["scenario (nonunique index)"] + COMPARED_PROTOCOLS,
        rows,
        title="E8c — permitted interleavings on duplicate values",
    )
    write_result("e08c_nonunique_interleavings", table)

    cells = dict(table_data)
    im = cells["insert dup vs fetch of the value"]["aries_im_data_only"]
    kvl = cells["insert dup vs fetch of the value"]["aries_kvl"]
    assert int(im.split("/")[0]) > int(kvl.split("/")[0]), (
        "ARIES/IM must beat KVL on duplicate-value concurrency"
    )
    for name, row in table_data:
        im_count = int(row["aries_im_data_only"].split("/")[0])
        for protocol in COMPARED_PROTOCOLS[1:]:
            assert im_count >= int(row[protocol].split("/")[0]), name


def test_e08_throughput(benchmark):
    results = benchmark.pedantic(
        lambda: {p: throughput(p) for p in COMPARED_PROTOCOLS}, rounds=1, iterations=1
    )
    table = format_table(
        ["protocol", "txn/s", "committed", "deadlocks", "lock waits"],
        [
            (
                p,
                results[p]["txn_per_second"],
                results[p]["committed"],
                results[p]["deadlocks"],
                results[p]["lock_waits"],
            )
            for p in COMPARED_PROTOCOLS
        ],
        title=f"E8b — {THREADS}-thread contended throughput, per protocol",
    )
    write_result("e08b_throughput", table)

    # Shape claim: data-only locking never *blocks* more than the
    # alternatives on the same schedule.
    data_only_waits = results["aries_im_data_only"]["lock_waits"]
    assert data_only_waits <= max(
        results[p]["lock_waits"] for p in COMPARED_PROTOCOLS
    )
    for p in COMPARED_PROTOCOLS:
        assert results[p]["committed"] > 0
