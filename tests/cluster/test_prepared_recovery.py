"""Prepared-transaction recovery edges.

The in-doubt window is where 2PC earns its keep: a branch that voted
yes is neither winner nor loser until the coordinator says so, across
any number of crashes on either side.  Covered here:

- shard crash after the PREPARE force but before the decision — the
  branch survives restart in-doubt with its locks reacquired;
- coordinator crash *between* delivering the two shard decisions — the
  outstanding decision is re-pushed at recovery and the second shard
  commits;
- PITR (``restore_to_lsn``) through a log containing PREPARE records —
  the restore surfaces the in-doubt branch instead of resolving it;
- ``dump_indoubt`` and ``trim_log``'s prepared-transaction bound;
- a small seeded sweep of the cluster torture kind.
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, shard_for_key
from repro.common.config import DatabaseConfig
from repro.common.errors import LockTimeoutError
from repro.db import Database
from repro.harness.torture import run_sweep
from repro.recovery.media import take_image_copy
from repro.replication import restore_to_lsn
from repro.tools.inspect import dump_indoubt
from repro.wal.records import RecordKind

from tests.cluster.test_twopc import cross_shard_keys


@pytest.fixture
def cluster():
    with Cluster(
        num_shards=3,
        config=DatabaseConfig(lock_timeout_seconds=0.2),
    ) as c:
        c.create_table("t")
        c.create_index("t", "by_id", column="id", unique=True)
        yield c


def prepare_cross_shard(cluster, a, b, value="p"):
    """Drive phase 1 by hand: both branches PREPARED, no decision."""
    client = cluster.client()
    client.begin()
    client.insert("t", {"id": a, "val": value})
    client.insert("t", {"id": b, "val": value})
    gid = cluster.coordinator.new_gid()
    shard_a, shard_b = shard_for_key(a, 3), shard_for_key(b, 3)
    assert client._shards[shard_a].prepare(gid) == "yes"
    assert client._shards[shard_b].prepare(gid) == "yes"
    client._txn_open = False
    client._touched = []
    client.close()
    return gid, shard_a, shard_b


def test_shard_crash_after_prepare_before_decision(cluster):
    a, b = cross_shard_keys(3, 2, start=1000)
    gid, shard_a, _ = prepare_cross_shard(cluster, a, b)

    cluster.crash_shard(shard_a)
    cluster.restart_shard(shard_a)

    # The branch survived the crash in-doubt: not rolled back with the
    # losers, not committed with the winners.
    db = cluster.shards[shard_a].db
    indoubt = db.indoubt_transactions()
    assert [t.gid for t in indoubt] == [gid]

    # ...with its locks: a conflicting write must block.
    with pytest.raises(LockTimeoutError):
        with db.transaction() as txn:
            db.insert(txn, "t", {"id": a, "val": "intruder"})

    # The coordinator never logged a decision -> presumed abort.
    assert cluster.resolve_indoubt() >= 1
    assert all(not gids for gids in cluster.indoubt_gids().values())
    reader = cluster.client()
    assert reader.fetch("t", "by_id", a) is None
    assert reader.fetch("t", "by_id", b) is None
    reader.close()


def test_shard_crash_after_durable_decision_commits(cluster):
    a, b = cross_shard_keys(3, 2, start=1100)
    gid, shard_a, shard_b = prepare_cross_shard(cluster, a, b)

    # The commit decision is forced on the coordinator log, then the
    # participant crashes before phase 2 reaches it.
    cluster.coordinator.decide_commit(gid, [shard_a, shard_b])
    cluster.crash_shard(shard_b)
    cluster.restart_shard(shard_b)

    cluster.resolve_indoubt()
    reader = cluster.client()
    assert reader.fetch("t", "by_id", a)["val"] == "p"
    assert reader.fetch("t", "by_id", b)["val"] == "p"
    reader.close()
    assert not cluster.coordinator.outstanding_commits()


def test_coordinator_crash_between_the_two_shard_decisions(cluster):
    a, b = cross_shard_keys(3, 2, start=1200)
    gid, shard_a, shard_b = prepare_cross_shard(cluster, a, b)

    cluster.coordinator.decide_commit(gid, [shard_a, shard_b])
    # First participant gets its decision...
    first = cluster.client_for_shard(shard_a)
    assert first.decide(gid, "commit") == "commit"
    first.close()
    # ...and the coordinator dies before the second.
    cluster.crash_coordinator()
    assert cluster.restart_coordinator() == 1  # one END-less decision

    cluster.resolve_indoubt()
    reader = cluster.client()
    assert reader.fetch("t", "by_id", a)["val"] == "p"
    assert reader.fetch("t", "by_id", b)["val"] == "p"
    reader.close()
    assert not cluster.coordinator.outstanding_commits()
    # Re-delivery to the already-committed first shard was idempotent
    # (its branch was forgotten): nothing in doubt anywhere.
    assert all(not gids for gids in cluster.indoubt_gids().values())


def test_coordinator_restart_never_reuses_logged_gids(cluster):
    a, b = cross_shard_keys(3, 2, start=1300)
    gid, shard_a, shard_b = prepare_cross_shard(cluster, a, b)
    cluster.coordinator.decide_commit(gid, [shard_a, shard_b])
    cluster.crash_coordinator()
    cluster.restart_coordinator()
    fresh = cluster.coordinator.new_gid()
    assert fresh != gid
    assert int(fresh.rsplit("-", 1)[1]) > int(gid.rsplit("-", 1)[1])
    cluster.resolve_indoubt()


def test_double_crash_keeps_branch_indoubt(cluster):
    """Restart is idempotent for a prepared branch: crash twice, still
    exactly one in-doubt transaction, still resolvable."""
    a, b = cross_shard_keys(3, 2, start=1400)
    gid, shard_a, _ = prepare_cross_shard(cluster, a, b)
    for _ in range(2):
        cluster.crash_shard(shard_a)
        cluster.restart_shard(shard_a)
    assert [t.gid for t in cluster.shards[shard_a].db.indoubt_transactions()] == [
        gid
    ]
    cluster.resolve_indoubt()
    assert all(not gids for gids in cluster.indoubt_gids().values())


class TestSingleNodePrepared:
    """Engine-level edges that don't need a full cluster."""

    def build(self):
        db = Database(DatabaseConfig())
        db.attach_archive()
        db.create_table("t")
        db.create_index("t", "by_id", column="id", unique=True)
        return db

    def test_pitr_through_a_prepare_record(self):
        db = self.build()
        copy = take_image_copy(db)
        with db.transaction() as txn:
            db.insert(txn, "t", {"id": 1, "val": "committed"})
        txn = db.begin()
        db.insert(txn, "t", {"id": 2, "val": "prepared"})
        assert db.prepare(txn, "g-pitr") == "yes"
        target = db.log.flushed_lsn

        restored = restore_to_lsn(db, copy, target)
        # The restore must surface the branch in-doubt, not resolve it.
        indoubt = restored.indoubt_transactions()
        assert [t.gid for t in indoubt] == ["g-pitr"]
        with restored.transaction() as rtxn:
            assert restored.fetch(rtxn, "t", "by_id", 1)["val"] == "committed"
        # The branch is resolvable on the restored database.
        restored.commit_prepared("g-pitr")
        with restored.transaction() as rtxn:
            assert restored.fetch(rtxn, "t", "by_id", 2)["val"] == "prepared"
        restored.close()
        db.rollback_prepared("g-pitr")
        db.close()

    def test_dump_indoubt_lists_the_branch(self):
        db = self.build()
        txn = db.begin()
        db.insert(txn, "t", {"id": 5, "val": "x"})
        assert db.prepare(txn, "g-dump") == "yes"
        text = dump_indoubt(db)
        assert "g-dump" in text and f"txn={txn.txn_id}" in text
        db.crash()
        db.restart()
        assert "g-dump" in dump_indoubt(db)
        db.commit_prepared("g-dump")
        assert dump_indoubt(db) == "(no in-doubt transactions)"
        db.close()

    def test_read_only_prepare_votes_read_only_and_ends(self):
        db = self.build()
        with db.transaction() as txn:
            db.insert(txn, "t", {"id": 9, "val": "x"})
        txn = db.begin()
        assert db.fetch(txn, "t", "by_id", 9) is not None
        assert db.prepare(txn, "g-ro") == "read-only"
        # The branch is finished: no in-doubt entry, nothing to decide.
        assert db.indoubt_transactions() == []
        db.close()

    def test_trim_log_is_bounded_by_prepared_transaction(self):
        db = self.build()
        txn = db.begin()
        db.insert(txn, "t", {"id": 11, "val": "p"})
        assert db.prepare(txn, "g-trim") == "yes"
        first_lsn = txn.first_lsn
        # Pile up later history, checkpoint, then trim: the prepared
        # transaction's first LSN must pin the tail.
        for i in range(20, 40):
            with db.transaction() as t2:
                db.insert(t2, "t", {"id": i, "val": "fill"})
        db.flush_all_pages()
        db.checkpoint()
        db.trim_log()
        assert db.log.truncation_point <= first_lsn
        record = db.log.read(txn.prepare_lsn)
        assert record.kind is RecordKind.PREPARE
        db.rollback_prepared("g-trim")
        db.close()


def test_cluster_torture_smoke():
    """Three seeds of the full 2PC torture mode (one per crash target);
    CI runs the 30-seed sweep."""
    reports = run_sweep(
        "cluster",
        range(3),
        sessions=3,
        requests_per_session=12,
        crash_after_requests=8,
    )
    assert {r.crash_mode for r in reports} == {"shard", "coordinator", "both"}
    assert sum(r.lost_cross for r in reports) >= 0
