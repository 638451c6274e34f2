"""The database server end to end: TCP clients, group commit, restart.

Starts a server on a localhost port over a group-committing database,
connects real TCP clients that run concurrent bank transfers (explicit
transactions, statement savepoints under the hood), shows how many log
flushes group commit saved, then stops the server, crashes and
recovers the database, and serves it again — the money survives.

Run:  python examples/server_demo.py
"""

import threading

from repro import Database, DatabaseConfig
from repro.common.errors import DeadlockError, LockTimeoutError, ServerError
from repro.server import DatabaseClient, DatabaseServer, ServerConfig

ACCOUNTS = 40
OPENING_BALANCE = 1_000
CLIENTS = 8
TRANSFERS_PER_CLIENT = 25


def build_db() -> Database:
    # The flush is priced (200 us, about one NVMe fsync): group commit
    # waits for partners only as long as a flush costs, so over a free
    # flush every commit would force at once and nothing would be saved.
    db = Database(
        DatabaseConfig(
            group_commit=True,
            lock_timeout_seconds=3.0,
            log_flush_latency_seconds=0.0002,
        )
    )
    db.create_table("accounts")
    db.create_index("accounts", "by_owner", column="owner", unique=True)
    txn = db.begin()
    for owner in range(ACCOUNTS):
        db.insert(txn, "accounts", {"owner": owner, "balance": OPENING_BALANCE})
    db.commit(txn)
    return db


def transfer(client: DatabaseClient, source: int, target: int, amount: int) -> None:
    """Move money inside one server-side transaction.  The client API
    is key-oriented: read both rows, rewrite both rows."""
    with client.transaction():
        src = client.fetch("accounts", "by_owner", source)
        dst = client.fetch("accounts", "by_owner", target)
        client.delete_by_key("accounts", "by_owner", source)
        client.delete_by_key("accounts", "by_owner", target)
        client.insert("accounts", {"owner": source, "balance": src["balance"] - amount})
        client.insert("accounts", {"owner": target, "balance": dst["balance"] + amount})


def client_worker(host: str, port: int, worker_id: int, outcomes: dict) -> None:
    import random

    rng = random.Random(worker_id)
    client = DatabaseClient.connect(host, port)
    try:
        for _ in range(TRANSFERS_PER_CLIENT):
            source, target = rng.sample(range(ACCOUNTS), 2)
            try:
                transfer(client, source, target, rng.randint(1, 50))
                outcomes["committed"] += 1
            except (DeadlockError, LockTimeoutError):
                outcomes["aborted"] += 1  # victim; transaction rolled back
            except ServerError:
                outcomes["errors"] += 1
    finally:
        client.close()


def total_balance(server: DatabaseServer) -> int:
    with server.connect() as client:
        rows = client.scan("accounts", "by_owner")
    return sum(row["balance"] for row in rows)


def run_round(server: DatabaseServer, id_base: int) -> dict:
    host, port = server.address
    outcomes = {"committed": 0, "aborted": 0, "errors": 0}
    threads = [
        threading.Thread(target=client_worker, args=(host, port, id_base + i, outcomes))
        for i in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes


def main() -> None:
    db = build_db()
    server = DatabaseServer(db, ServerConfig(workers=CLIENTS)).start()
    host, port = server.address
    print(f"serving on {host}:{port}")

    before = db.stats.snapshot()
    outcomes = run_round(server, id_base=0)
    delta = db.stats.diff(before)
    print(f"round 1 over TCP: {outcomes}")
    print(
        f"group commit: {delta.get('txn.committed', 0)} commits cost "
        f"{delta.get('log.sync_forces', 0)} log flushes "
        f"({delta.get('log.group_commit_flushes_saved', 0)} saved)"
    )
    total = total_balance(server)
    assert total == ACCOUNTS * OPENING_BALANCE, total
    print(f"total after round 1: {total} (conserved)")

    # Graceful stop (drains, checkpoints), then a crash + ARIES restart.
    server.shutdown()
    db.crash()
    report = db.restart()
    print(
        f"crash+restart: {report.redo.records_redone} redone, "
        f"{report.undo.transactions_rolled_back} losers rolled back"
    )

    # Serve the recovered database again; clients can't tell.
    server = DatabaseServer(db, ServerConfig(workers=CLIENTS)).start()
    print(f"re-serving on {server.address[0]}:{server.address[1]}")
    outcomes = run_round(server, id_base=100)
    print(f"round 2 after recovery: {outcomes}")
    total = total_balance(server)
    assert total == ACCOUNTS * OPENING_BALANCE, total
    assert db.verify_indexes() == {}
    print(f"total after round 2: {total} (conserved); index verified OK")
    server.shutdown()
    db.close()
    print("server drained, database closed")


if __name__ == "__main__":
    main()
