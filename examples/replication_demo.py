"""Log-shipping replication end to end: standby, lag, kill, promote.

Starts a replicated primary (TCP server + WAL archive), attaches a hot
standby that seeds from a fuzzy image copy and replays the shipped WAL
continuously, serves a read from the standby at the replay horizon,
shows replication lag from both sides, then kills the primary mid-load
— with commits parked inside the group-commit flush window — and
promotes the standby.  The promoted database recovers with ordinary
ARIES restart (the shipped log IS the primary's log, byte for byte),
keeps every acknowledged commit, and takes over read-write traffic.

Run:  python examples/replication_demo.py
"""

import threading

from repro import Database, DatabaseConfig
from repro.common.errors import CommitNotDurableError, ServerError
from repro.replication import Standby
from repro.server import DatabaseServer, ServerConfig

ROWS_BEFORE_STANDBY = 50
LOAD_ROWS = 300
#: Where a group-commit leader has taken a batch and not yet forced it.
FLUSH_WINDOW = "log.group_commit.before_flush"


def build_primary() -> tuple[Database, DatabaseServer]:
    db = Database(DatabaseConfig(group_commit=True))
    db.create_table("events")
    db.create_index("events", "by_id", column="id", unique=True)
    db.attach_archive()  # trim_log() now archives instead of discarding
    db.enable_replication()  # async shipping; sync=True gates commits
    txn = db.begin()
    for i in range(ROWS_BEFORE_STANDBY):
        db.insert(txn, "events", {"id": i, "note": f"pre-standby {i}"})
    db.commit(txn)
    server = DatabaseServer(db, ServerConfig(workers=4)).start()
    return db, server


def main() -> None:
    db, server = build_primary()
    host, port = server.address
    print(f"primary serving on {host}:{port}")

    # The standby seeds over the same wire protocol any client uses:
    # snapshot (fuzzy image copy + catalog), then continuous redo.
    standby = Standby(lambda: server.connect(), name="demo-standby").start()
    print(f"standby seeded; status: {standby.status()}")

    # Writes stream to the standby as they become durable on the primary.
    acked: list[int] = []
    lost = 0
    with server.connect() as client:
        for i in range(ROWS_BEFORE_STANDBY, ROWS_BEFORE_STANDBY + LOAD_ROWS):
            try:
                client.insert("events", {"id": i, "note": f"live {i}"})
                acked.append(i)
            except (CommitNotDurableError, ServerError):
                lost += 1
    standby.wait_for_lsn(db.log.flushed_lsn, timeout=5.0)
    print(
        f"after {len(acked)} acked inserts: standby lag = "
        f"{standby.lag_bytes()} bytes; primary view: "
        f"{db.replication.status()['subscribers']}"
    )

    # A read served by the standby, at its replay horizon.
    row = standby.fetch("events", "by_id", acked[-1])
    print(f"standby read: id={acked[-1]} -> {row['note']!r}")

    # Kill the primary with commits parked between group-commit enqueue
    # and flush — the worst possible instant.  Parked committers get
    # CommitNotDurableError (never a false ack); the standby has only
    # the durable prefix, which is exactly what may survive.  The
    # committer leading the flush pauses at its failpoint with the
    # batch taken; the crash resumes it as crashed.
    db.failpoints.arm_pause(FLUSH_WINDOW)
    blocked = threading.Thread(
        target=lambda: _try_insert(server, 9_999), daemon=True
    )
    blocked.start()
    db.failpoints.wait_until_paused(FLUSH_WINDOW, timeout=2.0)
    print(f"crashing primary with {db.log.group_commit_parked} commit(s) parked")
    db.crash()
    blocked.join(timeout=2.0)

    # Drain whatever durable WAL the dead primary still serves, then
    # cut the cord and promote.
    standby.wait_for_lsn(db.log.flushed_lsn, timeout=5.0)
    server.abort()
    new_server, report = standby.promote_to_server(
        ServerConfig(workers=4), listen=True
    )
    print(
        f"promoted: {report.redo.records_redone} redone, "
        f"{report.undo.transactions_rolled_back} in-flight rolled back"
    )
    promoted = standby.db

    with new_server.connect() as client:
        for i in acked:
            assert client.fetch("events", "by_id", i) is not None, i
        assert client.fetch("events", "by_id", 9_999) is None  # parked, lost
        client.insert("events", {"id": 10_000, "note": "written post-failover"})
        assert client.fetch("events", "by_id", 10_000) is not None
    assert promoted.verify_indexes() == {}
    print(
        f"all {len(acked)} acked commits present on the new primary, "
        f"parked commit absent, post-failover writes OK; index verified"
    )
    new_server.shutdown()
    promoted.close()


def _try_insert(server: DatabaseServer, key: int) -> None:
    try:
        with server.connect() as client:
            client.insert("events", {"id": key, "note": "doomed"})
    except Exception:
        pass  # CommitNotDurableError or connection loss — both expected


if __name__ == "__main__":
    main()
