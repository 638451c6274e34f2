"""Standby snapshot reads: consistent multi-key views at the replay
horizon, with zero lock-table traffic on the standby."""

import threading

import pytest

from repro.common.config import DatabaseConfig
from repro.db import Database
from repro.replication import Standby
from repro.server import DatabaseServer, ServerConfig


@pytest.fixture
def primary():
    db = Database(DatabaseConfig())
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    db.enable_replication()
    server = DatabaseServer(db, ServerConfig(workers=4, queue_depth=32)).start(
        listen=False
    )
    yield db, server
    server.abort()
    db.close()


def insert(db, i):
    with db.transaction() as txn:
        db.insert(txn, "t", {"id": i, "v": f"r{i}"})


def lock_requests(db):
    return sum(
        v
        for k, v in db.stats.snapshot().items()
        if k.startswith("lock.requests")
    )


class TestStandbySnapshot:
    def test_multi_key_reads_never_torn(self, primary):
        """A writer deletes and re-inserts keys 20 and 21 in one
        transaction, forever.  A standby multi-key snapshot read must
        see both keys or neither — never the mid-transaction state —
        even while the records stream in mid-replay."""
        db, server = primary
        for i in range(40):
            insert(db, i)
        standby = Standby(lambda: server.connect_loopback(), name="s").start()
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                with db.transaction() as txn:
                    for key in (20, 21):
                        db.delete_by_key(txn, "t", "by_id", key)
                    for key in (20, 21):
                        db.insert(txn, "t", {"id": key, "v": "rewrite"})

        thread = threading.Thread(target=writer)
        thread.start()
        torn = 0
        try:
            for _ in range(300):
                a, b = standby.snapshot_read("t", "by_id", [20, 21])
                if (a is None) != (b is None):
                    torn += 1
        finally:
            stop.set()
            thread.join()
        assert torn == 0
        # The snapshot path took no record locks on the standby.
        assert lock_requests(standby.db) == 0
        assert standby.db.stats.snapshot().get("standby.snapshot_reads", 0) > 0
        standby.close()

    def test_reads_are_at_the_replay_horizon(self, primary):
        db, server = primary
        for i in range(10):
            insert(db, i)
        standby = Standby(lambda: server.connect_loopback(), name="s").start()
        assert standby.wait_for_lsn(db.log.flushed_lsn), standby.status()
        assert standby.fetch("t", "by_id", 3)["v"] == "r3"
        assert standby.fetch("t", "by_id", 99) is None
        # An uncommitted primary transaction is an open txn at the
        # horizon: invisible on the standby, without blocking.
        txn = db.begin()
        db.insert(txn, "t", {"id": 99, "v": "open"})
        db.log.force()
        standby.wait_for_lsn(db.log.flushed_lsn)
        assert standby.fetch("t", "by_id", 99) is None
        db.commit(txn)
        assert standby.wait_for_lsn(db.log.flushed_lsn), standby.status()
        assert standby.fetch("t", "by_id", 99)["v"] == "open"
        assert lock_requests(standby.db) == 0
        standby.close()

    def test_seeded_active_txns_stay_invisible(self, primary):
        """A standby seeded while a primary transaction is open treats
        that txn as open from the first snapshot — its later records
        replay, but its writes stay invisible until its COMMIT ships."""
        db, server = primary
        insert(db, 1)
        txn = db.begin()
        db.insert(txn, "t", {"id": 2, "v": "inflight"})
        standby = Standby(lambda: server.connect_loopback(), name="s").start()
        standby.wait_for_lsn(db.log.flushed_lsn)
        assert standby.fetch("t", "by_id", 2) is None
        db.commit(txn)
        assert standby.wait_for_lsn(db.log.flushed_lsn), standby.status()
        assert standby.fetch("t", "by_id", 2)["v"] == "inflight"
        standby.close()

    def test_legacy_locking_fallback_without_mvcc(self):
        db = Database(DatabaseConfig(mvcc_enabled=False))
        db.create_table("t")
        db.create_index("t", "by_id", column="id", unique=True)
        db.enable_replication()
        server = DatabaseServer(db, ServerConfig(workers=2)).start(listen=False)
        try:
            insert(db, 1)
            standby = Standby(
                lambda: server.connect_loopback(), name="s"
            ).start()
            assert standby.wait_for_lsn(db.log.flushed_lsn), standby.status()
            assert standby.fetch("t", "by_id", 1)["v"] == "r1"
            assert standby.db.stats.snapshot().get(
                "standby.snapshot_reads", 0
            ) == 0
            standby.close()
        finally:
            server.abort()
            db.close()
