"""Regenerating Figure 2: the locking-summary table, empirically.

Rather than transcribing the paper's table, these helpers *observe*
which locks each index operation actually acquires — name class
(record / key / key value / EOF), mode, and duration — by running
single operations against a populated database with the lock audit
enabled, then classifying the audited entries.

The probes are arranged so the interesting next-key/current-key rows
are unambiguous:

- fetch of a present key, fetch of an absent key (next-key case),
  fetch running off the right edge (EOF case);
- insert of a new key (instant next-key lock), insert of a duplicate
  into a unique index (commit S on the equal key);
- delete (commit next-key lock).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.stats import LockAuditEntry, OperationProbe
from repro.db import Database
from repro.harness.workload import WorkloadSpec, make_database


@dataclass(frozen=True)
class AuditRow:
    operation: str
    lock_target: str  # "record" | "key" | "key value" | "eof" | "tree"
    mode: str
    duration: str
    count: int


_NAME_CLASS = {
    "rec": "record",
    "key": "key",
    "kv": "key value",
    "eof": "eof",
    "treelock": "tree",
}


def classify(entry: LockAuditEntry) -> str:
    tag = entry.name[0] if isinstance(entry.name, tuple) and entry.name else "?"
    return _NAME_CLASS.get(tag, str(tag))


def audit_operation(db: Database, label: str, fn) -> list[AuditRow]:
    """Run ``fn(txn)`` in its own transaction under a lock-audit probe
    and return the classified lock acquisitions."""
    with OperationProbe(db.stats, label) as probe:
        txn = db.begin()
        try:
            fn(txn)
            db.commit(txn)
        except Exception:  # noqa: BLE001,RPR005 - audit probe: roll back and keep the trace
            db.rollback(txn)
    grouped: dict[tuple[str, str, str], int] = {}
    for entry in probe.entries:
        key = (classify(entry), entry.mode, entry.duration)
        grouped[key] = grouped.get(key, 0) + 1
    return [
        AuditRow(label, target, mode, duration, count)
        for (target, mode, duration), count in sorted(grouped.items())
    ]


def figure2_rows(protocol: str) -> list[AuditRow]:
    """The full Figure-2 style audit for one locking protocol."""
    spec = WorkloadSpec(n_initial=50, key_space=1000, seed=7)
    db = make_database(spec, protocol=protocol)
    stride = 1000 // 50
    present = 10 * stride
    absent = present + stride // 2
    rows: list[AuditRow] = []

    rows += audit_operation(
        db, "fetch (present)", lambda t: db.fetch(t, "t", "by_k", present)
    )
    rows += audit_operation(
        db, "fetch (absent: next key)", lambda t: db.fetch(t, "t", "by_k", absent)
    )
    rows += audit_operation(
        db, "fetch (eof)", lambda t: db.fetch(t, "t", "by_k", 10**6)
    )
    rows += audit_operation(
        db, "insert", lambda t: db.insert(t, "t", {"k": absent, "pad": "x"})
    )
    rows += audit_operation(
        db,
        "insert (unique violation)",
        lambda t: db.insert(t, "t", {"k": present, "pad": "x"}),
    )
    rows += audit_operation(
        db, "delete", lambda t: db.delete_by_key(t, "t", "by_k", present)
    )

    def scan3(t):
        for _ in db.scan(t, "t", "by_k", low=present, high=present + 3 * stride):
            pass

    rows += audit_operation(db, "fetch next (3-key scan)", scan3)
    return rows
