"""Seeded fault/crash torture: 200 schedules, all invariants (E13).

Each round runs a random workload under a seeded fault schedule (torn
page writes, transient/permanent I/O errors, WAL-tail loss), crashes,
restarts, and asserts the recovery invariants: committed keys durable,
uncommitted keys absent, index structure valid and consistent with the
heap, and a second restart idempotent.  A failing seed replays exactly:
``run_round(TortureSpec(kind="engine", seed=N))``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.common.config import DatabaseConfig
from repro.db import Database
from repro.harness.torture import TortureSpec, run_round, run_sweep
from repro.storage.faults import FaultInjector, FaultPlan
from tests.conftest import populate

BATCH = 10


@pytest.mark.parametrize("batch", range(200 // BATCH))
def test_torture_sweep(batch):
    reports = run_sweep("engine", range(batch * BATCH, (batch + 1) * BATCH))
    assert len(reports) == BATCH


def test_rounds_are_deterministic():
    a = run_round(TortureSpec(kind="engine", seed=7))
    b = run_round(TortureSpec(kind="engine", seed=7))
    assert (a.committed_keys, a.txns_committed, a.fault_counters) == (
        b.committed_keys,
        b.txns_committed,
        b.fault_counters,
    )


def test_sweep_exercises_every_fault_kind():
    """The default probabilities must actually reach each failure path —
    a sweep that never tears a page proves nothing."""
    reports = run_sweep("engine", range(40))
    counters: dict[str, int] = {}
    for report in reports:
        for name, count in report.fault_counters.items():
            counters[name] = counters.get(name, 0) + count
    assert counters.get("torn_writes_planned", 0) > 0
    assert counters.get("wal_tail_losses", 0) > 0
    assert any(
        name.startswith("transient_") and count > 0
        for name, count in counters.items()
    )
    assert any(r.io_panic for r in reports)
    assert any(r.pages_rebuilt > 0 for r in reports)
    assert any(r.log_tail_bytes_discarded > 0 for r in reports)


def test_restart_over_log_truncated_mid_record():
    """A crash that persists only part of the last log record must not
    make restart raise: the tail is repaired, committed work survives,
    and the in-flight transaction whose record was cut is rolled back."""
    injector = FaultInjector(FaultPlan(seed=0))
    db = Database(DatabaseConfig(buffer_pool_pages=64), fault_injector=injector)
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    populate(db, range(20))
    db.log.force()

    # In-flight work appends unforced records; cut the last one in half.
    txn = db.begin()
    db.insert(txn, "t", {"id": 100, "val": "in-flight"})
    unforced = db.log.unforced_bytes
    assert unforced > 0
    last = list(db.log.records())[-1]
    cut = unforced - len(last.to_bytes()) // 2
    injector.tail_loss = lambda unforced_bytes: cut

    db.crash()
    report = db.restart()
    assert report.log_tail_bytes_discarded > 0

    txn = db.begin()
    survivors = {row["id"] for _, row in db.scan(txn, "t", "by_id")}
    db.commit(txn)
    assert survivors == set(range(20))
    assert db.verify_indexes() == {}


def test_torn_tail_with_whole_records_keeps_a_surviving_commit():
    """Unforced bytes that survive a crash as *complete* records are
    genuinely durable — a commit record in that tail makes its
    transaction a winner even though force() never covered it."""
    injector = FaultInjector(FaultPlan(seed=0))
    db = Database(DatabaseConfig(buffer_pool_pages=64), fault_injector=injector)
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    populate(db, range(10))
    db.log.force()

    txn = db.begin()
    db.insert(txn, "t", {"id": 100, "val": "tail"})
    db.commit(txn)  # forces through the commit record
    txn = db.begin()
    db.insert(txn, "t", {"id": 200, "val": "lost"})  # unforced loser

    injector.tail_loss = lambda unforced_bytes: 0
    db.crash()
    db.restart()
    txn = db.begin()
    survivors = {row["id"] for _, row in db.scan(txn, "t", "by_id")}
    db.commit(txn)
    assert 100 in survivors
    assert 200 not in survivors


def test_cli_runs_without_importing_its_module_twice():
    """``python -m repro.harness.torture`` must not find its own module
    already imported by the package: runpy warns when it does, and the
    module's state would exist twice."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning"]
        + ["-m", "repro.harness.torture", "--help"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
