"""Crash at every record boundary of one scripted workload.

The workload's log stream is captured once; every prefix that ends on a
record boundary is loaded into a fresh database the way the bench
``restart`` image and point-in-time restore load a stream, then
recovered twice — by ``restart()``, and by an instant restart drained by
its background thread.  Each recovery must leave exactly the
transactions whose COMMIT is in the prefix, a log ``walcheck`` accepts
and indexes ``verify_indexes`` accepts.  The workload has two local
commits, a rollback, a prepared-then-committed 2PC branch, a leaf split
and a boundary-key delete, so a prefix ends inside each of them.
"""

from __future__ import annotations

from repro.analysis.walcheck import check_log
from repro.common.config import DatabaseConfig
from repro.db import Database
from repro.replication.catalog import catalog_snapshot, install_catalog
from repro.wal import records as record_format
from repro.wal.records import RecordKind

CONFIG = DatabaseConfig(page_size=768, buffer_pool_pages=64)
SEED_KEYS = range(0, 30, 2)
GID = "g-prefix"


def run_workload() -> tuple[Database, int, dict[int, tuple[set, set]]]:
    """Schema and seed rows, then the scripted transactions.  Returns
    the database, the LSN where the script starts and each scripted
    transaction's (inserted, deleted) keys."""
    db = Database(CONFIG)
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    with db.transaction() as txn:
        for key in SEED_KEYS:
            db.insert(txn, "t", {"id": key, "val": "seed"})
    start = db.log.end_lsn
    effects: dict[int, tuple[set, set]] = {}
    splits = db.stats.get("btree.page_splits")

    # A commit whose inserts split a leaf.
    txn = db.begin()
    inserted = set(range(1, 17, 2))
    for key in sorted(inserted):
        db.insert(txn, "t", {"id": key, "val": "split"})
    effects[txn.txn_id] = (inserted, set())
    db.commit(txn)
    assert db.stats.get("btree.page_splits") > splits

    # A rollback.
    txn = db.begin()
    for key in (100, 101):
        db.insert(txn, "t", {"id": key, "val": "lost"})
    db.delete_by_key(txn, "t", "by_id", 4)
    effects[txn.txn_id] = ({100, 101}, {4})
    db.rollback(txn)

    # A commit that deletes the smallest key: a boundary delete.
    txn = db.begin()
    db.delete_by_key(txn, "t", "by_id", 0)
    effects[txn.txn_id] = (set(), {0})
    db.commit(txn)

    # A 2PC branch: PREPARE, then the coordinator's commit.
    txn = db.begin()
    db.insert(txn, "t", {"id": 200, "val": "2pc"})
    db.delete_by_key(txn, "t", "by_id", 2)
    effects[txn.txn_id] = ({200}, {2})
    assert db.prepare(txn, GID) == "yes"
    db.commit_prepared(GID)
    db.log.force()
    return db, start, effects


def load_prefix(stream: bytes, catalog: dict) -> Database:
    """A fresh database whose log is ``stream`` and whose disk is empty
    (nothing was flushed): analysis scans from LSN 1."""
    db = Database(CONFIG)
    db.log.load_stream(1, stream)
    install_catalog(db, catalog)
    return db


def committed_keys(db: Database) -> set[int]:
    with db.transaction() as txn:
        return {row["id"] for _, row in db.scan(txn, "t", "by_id")}


def test_every_prefix_recovers_exactly_its_commits():
    source, start, effects = run_workload()
    stream = source.log.raw_slice(1)
    catalog = catalog_snapshot(source)
    records = list(source.log.records(start))
    commits = {r.txn_id: r.lsn for r in records if r.kind is RecordKind.COMMIT}
    assert len(commits) == 3  # the rolled-back transaction has none
    # Every pair the workload logs has a one-byte code.
    assert {(r.rm, r.op) for r in records} <= set(record_format._OPS)
    boundaries = [r.lsn for r in records] + [source.log.end_lsn]
    source.close()

    for end in boundaries:
        expected = set(SEED_KEYS)
        for txn_id, (inserted, deleted) in effects.items():
            if commits.get(txn_id, end) < end:
                expected = (expected | inserted) - deleted
        for instant in (False, True):
            db = load_prefix(stream[: end - 1], catalog)
            if instant:
                report = db.instant_restart(background=True)
                assert report.governor.wait_drained(timeout=10.0)
            else:
                db.restart()
            where = f"prefix ending at LSN {end}, {'instant' if instant else 'restart'}"
            # An in-doubt branch has no decision in this log: presumed abort.
            for branch in db.indoubt_transactions():
                assert branch.gid == GID, where
                db.rollback_prepared(GID)
            assert committed_keys(db) == expected, where
            report = check_log(db.log)
            assert report.ok, f"{where}\n{report.format()}"
            assert db.verify_indexes() == {}, where
            db.close()
