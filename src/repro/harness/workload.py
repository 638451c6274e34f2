"""Workload generation for the experiments.

Deterministic (seeded) generators for the operation mixes the
benchmarks sweep: uniform and skewed key choices, configurable
fetch/insert/delete mixes, and a loader that populates a fresh database
with one table and one or more indexes under a chosen locking protocol.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.common.config import DatabaseConfig
from repro.db import Database


@dataclass
class WorkloadSpec:
    """Parameters of a generated workload."""

    n_initial: int = 1000
    key_space: int = 10_000
    value_size: int = 24
    fetch_fraction: float = 0.5
    insert_fraction: float = 0.25
    delete_fraction: float = 0.25
    scan_fraction: float = 0.0
    scan_length: int = 10
    ops_per_txn: int = 4
    seed: int = 42
    unique: bool = True
    hot_fraction: float = 0.0
    """Fraction of operations directed at a small hot range (contention)."""
    hot_range: int = 64

    def __post_init__(self) -> None:
        total = (
            self.fetch_fraction
            + self.insert_fraction
            + self.delete_fraction
            + self.scan_fraction
        )
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"operation fractions sum to {total}, not 1.0")


@dataclass
class Operation:
    kind: str  # "fetch" | "insert" | "delete" | "scan"
    key: int
    length: int = 0


def make_database(
    spec: WorkloadSpec,
    protocol: str = "data_only",
    config: DatabaseConfig | None = None,
) -> Database:
    """Fresh database with table ``t`` and index ``by_k`` on column
    ``k``, pre-populated with ``n_initial`` evenly spread keys."""
    db = Database(config or DatabaseConfig())
    db.create_table("t")
    db.create_index("t", "by_k", column="k", unique=spec.unique, protocol=protocol)
    stride = max(spec.key_space // max(spec.n_initial, 1), 1)
    txn = db.begin()
    payload = "v" * spec.value_size
    for i in range(spec.n_initial):
        db.insert(txn, "t", {"k": i * stride, "pad": payload})
    db.commit(txn)
    return db


def generate_operations(spec: WorkloadSpec, count: int, seed_offset: int = 0) -> list[Operation]:
    """A deterministic operation stream for one worker."""
    rng = random.Random(spec.seed + seed_offset)
    ops: list[Operation] = []
    for _ in range(count):
        roll = rng.random()
        if rng.random() < spec.hot_fraction:
            key = rng.randrange(spec.hot_range)
        else:
            key = rng.randrange(spec.key_space)
        if roll < spec.fetch_fraction:
            ops.append(Operation("fetch", key))
        elif roll < spec.fetch_fraction + spec.insert_fraction:
            ops.append(Operation("insert", key))
        elif roll < spec.fetch_fraction + spec.insert_fraction + spec.delete_fraction:
            ops.append(Operation("delete", key))
        else:
            ops.append(Operation("scan", key, length=spec.scan_length))
    return ops


@dataclass
class RunResult:
    committed: int = 0
    rolled_back: int = 0
    deadlocks: int = 0
    statement_errors: int = 0
    counters: dict[str, int] = field(default_factory=dict)


def run_operations(
    db: Database,
    spec: WorkloadSpec,
    operations: list[Operation],
    abort_fraction: float = 0.0,
    seed_offset: int = 0,
) -> RunResult:
    """Execute an operation stream in transactions of ``ops_per_txn``.

    Statement failures (unique violation, key not found) roll back to a
    statement savepoint — the textbook use of ARIES partial rollbacks —
    and deadlock/timeout victims roll back and move on.
    """
    from repro.common.errors import (
        DeadlockError,
        KeyNotFoundError,
        LockTimeoutError,
        UniqueKeyViolationError,
    )

    rng = random.Random(spec.seed + 7919 * (seed_offset + 1))
    result = RunResult()
    payload = "w" * spec.value_size
    position = 0
    while position < len(operations):
        batch = operations[position : position + spec.ops_per_txn]
        position += spec.ops_per_txn
        txn = db.begin()
        try:
            for op in batch:
                db.savepoint(txn, "stmt")
                try:
                    if op.kind == "fetch":
                        db.fetch(txn, "t", "by_k", op.key)
                    elif op.kind == "insert":
                        db.insert(txn, "t", {"k": op.key, "pad": payload})
                    elif op.kind == "delete":
                        db.delete_by_key(txn, "t", "by_k", op.key)
                    elif op.kind == "scan":
                        for _ in db.scan(
                            txn, "t", "by_k", low=op.key, high=op.key + op.length
                        ):
                            pass
                except (UniqueKeyViolationError, KeyNotFoundError):
                    result.statement_errors += 1
                    db.rollback_to_savepoint(txn, "stmt")
            if abort_fraction and rng.random() < abort_fraction:
                db.rollback(txn)
                result.rolled_back += 1
            else:
                db.commit(txn)
                result.committed += 1
        except (DeadlockError, LockTimeoutError):
            result.deadlocks += 1
            try:
                db.rollback(txn)
            except Exception:  # noqa: BLE001,RPR005 - best-effort rollback; restart undoes
                pass
    return result
