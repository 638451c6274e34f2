"""Hot standby: catch-up, flush-boundary visibility, lag, reconnect,
synchronous replication, and failover promotion."""

import threading
import time

import pytest

from repro.common.config import DatabaseConfig
from repro.common.errors import (
    StandbyError,
    SyncReplicationTimeoutError,
)
from repro.db import Database
from repro.replication import Standby
from repro.server import DatabaseServer, ServerConfig

#: Where a group-commit leader has taken a batch and not yet forced it.
FLUSH_WINDOW = "log.group_commit.before_flush"


def make_primary(sync=False, **server_kwargs):
    db = Database(DatabaseConfig(group_commit=True))
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    db.enable_replication(sync=sync, sync_timeout_seconds=1.0)
    server = DatabaseServer(
        db, ServerConfig(workers=4, queue_depth=32, **server_kwargs)
    ).start(listen=False)
    return db, server


def insert(db, i, v=None):
    with db.transaction() as txn:
        db.insert(txn, "t", {"id": i, "v": v or f"r{i}"})


def caught_up(db, standby, timeout=5.0):
    return standby.wait_for_lsn(db.log.flushed_lsn, timeout=timeout)


class TestCatchUp:
    def test_sees_rows_from_before_and_after_seeding(self):
        db, server = make_primary()
        for i in range(10):
            insert(db, i)
        standby = Standby(lambda: server.connect_loopback(), name="s").start()
        for i in range(10, 20):
            insert(db, i)
        assert caught_up(db, standby), standby.status()
        for i in (0, 9, 10, 19):
            assert standby.fetch("t", "by_id", i)["v"] == f"r{i}"
        assert standby.fetch("t", "by_id", 999) is None
        assert standby.lag_bytes() == 0
        standby.close()
        server.abort()
        db.close()

    def test_replication_lag_is_measured(self):
        db, server = make_primary()
        standby = Standby(lambda: server.connect_loopback(), name="s").start()
        for i in range(10):
            insert(db, i)
        assert caught_up(db, standby)
        status = standby.status()
        assert status["lag_bytes"] == 0
        assert status["local_flushed_lsn"] == db.log.flushed_lsn
        primary_view = db.replication.status()
        assert primary_view["subscribers"]["s"]["lag_bytes"] == 0
        # The shipped stream crosses the wire as raw bytes, identical to
        # the standby's own log from its ship-start position.
        ship_start = standby.db.log.truncation_point
        with server.connect_loopback() as client:
            response = client.request("repl_poll", name="s", from_lsn=ship_start)
        assert isinstance(response["data"], bytes)
        assert response["data"] == standby.db.log.raw_slice(
            ship_start, ship_start + len(response["data"])
        )
        standby.close()
        server.abort()
        db.close()

    def test_standby_replay_survives_index_splits(self):
        """Enough volume to force leaf splits (multi-record SMOs) —
        the record-at-a-time replay must produce a structurally
        consistent tree."""
        db, server = make_primary()
        standby = Standby(lambda: server.connect_loopback(), name="s").start()
        for i in range(120):
            insert(db, i)
        assert caught_up(db, standby)
        with standby._replay_lock:
            assert standby.db.verify_indexes() == {}
        for i in (0, 60, 119):
            assert standby.fetch("t", "by_id", i) is not None
        standby.close()
        server.abort()
        db.close()


class TestFlushBoundary:
    def test_unflushed_commit_is_invisible_on_standby(self):
        """The headline invariant: the standby never exposes effects
        beyond the primary's flushed_lsn.  A commit parked inside the
        group-commit flush window is not durable — the standby must not
        see it, even though the primary has appended its records."""
        db, server = make_primary()
        standby = Standby(
            lambda: server.connect_loopback(), name="s", poll_wait_seconds=0.02
        ).start()
        insert(db, 1)
        assert caught_up(db, standby)

        db.failpoints.arm_pause(FLUSH_WINDOW)
        committer = threading.Thread(target=insert, args=(db, 2), daemon=True)
        committer.start()
        db.failpoints.wait_until_paused(FLUSH_WINDOW, timeout=2.0)
        assert db.log.group_commit_parked > 0
        # the records exist in the primary's volatile tail...
        assert db.log.end_lsn - 1 > db.log.flushed_lsn
        time.sleep(0.1)  # several standby poll cycles
        # ...but the standby has nothing past the flush boundary
        assert standby.db.log.end_lsn <= db.log.flushed_lsn + 1
        assert standby.fetch("t", "by_id", 2) is None

        db.failpoints.release(FLUSH_WINDOW)
        committer.join(timeout=2.0)
        assert caught_up(db, standby)
        assert standby.fetch("t", "by_id", 2) is not None
        standby.close()
        server.abort()
        db.close()


class TestReconnect:
    def test_resumes_from_last_position_after_server_loss(self):
        db, server_holder = None, {}
        db = Database(DatabaseConfig(group_commit=True))
        db.create_table("t")
        db.create_index("t", "by_id", column="id", unique=True)
        db.enable_replication()
        server_holder["s"] = DatabaseServer(
            db, ServerConfig(workers=4)
        ).start(listen=False)

        standby = Standby(
            lambda: server_holder["s"].connect_loopback(),
            name="s",
            reconnect_interval_seconds=0.01,
        ).start()
        for i in range(5):
            insert(db, i)
        assert caught_up(db, standby)

        # the server dies (connections torn down); the database lives on
        server_holder["s"].abort()
        for i in range(5, 10):
            insert(db, i)
        time.sleep(0.05)
        # new server, same database: the standby reconnects and resumes
        server_holder["s"] = DatabaseServer(
            db, ServerConfig(workers=4)
        ).start(listen=False)
        assert caught_up(db, standby), standby.status()
        for i in range(10):
            assert standby.fetch("t", "by_id", i) is not None
        assert standby.db.stats.snapshot().get("standby.reconnects", 0) >= 1
        standby.close()
        server_holder["s"].abort()
        db.close()


class TestSyncReplication:
    def test_sync_commit_waits_for_standby_ack(self):
        db, server = make_primary(sync=True)
        standby = Standby(
            lambda: server.connect_loopback(), name="s", poll_wait_seconds=0.05
        ).start()
        time.sleep(0.05)
        insert(db, 1)  # must not raise: the standby acks within the bound
        # the acked position covers the primary's whole durable prefix
        assert db.replication.min_acked() >= db.log.flushed_lsn
        assert standby.fetch("t", "by_id", 1) is not None
        standby.close()
        server.abort()
        db.close()

    def test_sync_commit_times_out_without_standby_but_commits(self):
        db, server = make_primary(sync=True)
        standby = Standby(lambda: server.connect_loopback(), name="s").start()
        time.sleep(0.05)
        insert(db, 1)
        standby.stop()  # subscriber registered but no longer acking
        with pytest.raises(SyncReplicationTimeoutError):
            insert(db, 2)
        # in-doubt means *locally durable*: the row is there
        with db.transaction() as txn:
            assert db.fetch(txn, "t", "by_id", 2) is not None
        standby.close()
        server.abort()
        db.close()

    def test_sync_mode_without_any_subscriber_degrades_to_async(self):
        db, server = make_primary(sync=True)
        insert(db, 1)  # no handshake ever happened: no gate
        server.abort()
        db.close()


class TestPromotion:
    def test_promote_recovers_and_serves_writes(self):
        db, server = make_primary()
        standby = Standby(lambda: server.connect_loopback(), name="s").start()
        for i in range(30):
            insert(db, i)
        assert caught_up(db, standby)

        # in-flight transaction at crash time: a loser after promotion
        loser = db.begin()
        db.insert(loser, "t", {"id": 777, "v": "in-flight"})
        db.log.force()
        standby.wait_for_lsn(db.log.flushed_lsn, timeout=5.0)

        db.crash()
        server.abort()
        report = standby.promote()
        assert report.undo.transactions_rolled_back == 1  # the in-flight txn
        promoted = standby.db
        with promoted.transaction() as txn:
            for i in range(30):
                assert promoted.fetch(txn, "t", "by_id", i) is not None
            assert promoted.fetch(txn, "t", "by_id", 777) is None  # undone
            promoted.insert(txn, "t", {"id": 1000, "v": "post-promote"})
        assert promoted.verify_indexes() == {}
        assert standby.promoted
        with pytest.raises(StandbyError):
            standby.fetch("t", "by_id", 1)  # read path retired
        with pytest.raises(StandbyError):
            standby.promote()  # idempotence guard
        promoted.close()

    def test_promote_to_server_serves_clients(self):
        db, server = make_primary()
        standby = Standby(lambda: server.connect_loopback(), name="s").start()
        for i in range(10):
            insert(db, i)
        assert caught_up(db, standby)
        db.crash()
        server.abort()
        new_server, report = standby.promote_to_server()
        client = new_server.connect_loopback()
        assert client.fetch("t", "by_id", 3)["v"] == "r3"
        client.insert("t", {"id": 50, "v": "via-new-primary"})
        assert client.fetch("t", "by_id", 50)["v"] == "via-new-primary"
        client.close()
        new_server.shutdown(drain=True)
        standby.db.close()
