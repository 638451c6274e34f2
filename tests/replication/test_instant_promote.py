"""Instant failover: ``Standby.promote(instant=True)``.

Promotion-time recovery is where instant restart pays off most — a
lagging standby's redo backlog no longer gates failover time.  These
tests prove the promoted database serves correct reads the moment
``promote`` returns (while background REDO is still draining) and that
a drain in progress does not compromise the promoted state.
"""

from __future__ import annotations

from repro.db import Database
from repro.replication import Standby
from repro.server import ServerConfig

from tests.replication.test_standby import caught_up, insert, make_primary

ROWS = 150  # enough volume for leaf splits and a real redo backlog


def promoted_standby():
    """Primary with committed load → caught-up standby → primary gone →
    instant promotion.  Returns (standby, restart report)."""
    db, server = make_primary()
    standby = Standby(
        lambda: server.connect_loopback(), name="s", poll_wait_seconds=0.02
    ).start()
    for i in range(ROWS):
        insert(db, i)
    assert caught_up(db, standby), standby.status()
    db.crash()
    server.abort()
    report = standby.promote(instant=True)
    return standby, report


class TestInstantPromotion:
    def test_reads_correct_while_background_redo_drains(self):
        standby, report = promoted_standby()
        db: Database = standby.db
        assert report.governor is not None
        # Every replicated row readable straight away — pages the drain
        # has not reached yet are recovered on first fetch.
        with db.transaction() as txn:
            for i in range(ROWS):
                row = db.fetch(txn, "t", "by_id", i)
                assert row is not None and row["v"] == f"r{i}", i
        assert report.governor.wait_drained(timeout=10.0)
        assert db.recovery_state == "steady"
        assert db.verify_indexes() == {}
        # Promoted means read-write: prove it.
        insert(db, ROWS + 1000)
        with db.transaction() as txn:
            assert db.fetch(txn, "t", "by_id", ROWS + 1000) is not None
        standby.close()

    def test_promote_while_drain_still_running_is_complete(self):
        """Don't touch anything: let the background thread do all the
        recovery, then verify the full state arrived."""
        standby, report = promoted_standby()
        db: Database = standby.db
        assert report.governor.wait_drained(timeout=10.0)
        with db.transaction() as txn:
            found = {row["id"] for _, row in db.scan(txn, "t", "by_id")}
        assert found == set(range(ROWS))
        assert db.verify_indexes() == {}
        standby.close()

    def test_promote_to_server_serves_during_drain(self):
        db, server = make_primary()
        standby = Standby(
            lambda: server.connect_loopback(), name="s", poll_wait_seconds=0.02
        ).start()
        for i in range(ROWS):
            insert(db, i)
        assert caught_up(db, standby), standby.status()
        db.crash()
        server.abort()
        new_server, report = standby.promote_to_server(
            server_config=ServerConfig(workers=2), instant=True
        )
        try:
            with new_server.connect_loopback() as client:
                status = client.server_status()
                assert status["state"] in ("recovering", "steady")
                assert client.fetch("t", "by_id", 0)["v"] == "r0"
                assert client.fetch("t", "by_id", ROWS - 1) is not None
            assert report.governor.wait_drained(timeout=10.0)
            with new_server.connect_loopback() as client:
                assert client.server_status()["state"] == "steady"
        finally:
            new_server.shutdown()
            standby.db.close()
