"""Every registered wire op, sent to a server session over loopback.

The cases are keyed by op name and the test is parametrized over
:data:`repro.codec.ops.OPS`, so an op added to the registry without a
case here fails.  Each op runs on its own connection to a server whose
database has replication enabled, and must round-trip with the result
docs/API.md describes.  Ops with a client stub go through the stub.
"""

from __future__ import annotations

import pytest

from repro.codec.frames import PROTOCOL_V2
from repro.codec.ops import OPS
from repro.server import DatabaseServer, ServerConfig
from tests.conftest import build_db, populate


@pytest.fixture
def server():
    db = build_db()
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    populate(db, range(1, 4))
    db.create_table("names")
    db.create_index("names", "by_name", column="name", unique=True)
    txn = db.begin()
    for name in ("alice", "bob"):
        db.insert(txn, "names", {"name": name})
    db.commit(txn)
    db.enable_replication()
    srv = DatabaseServer(db, ServerConfig(workers=2)).start(listen=False)
    yield srv
    srv.shutdown()
    db.close()


def _commit(client, server):
    tid = client.request("begin")
    client.insert("t", {"id": 10, "val": "c"})
    assert client.request("commit") == tid
    assert client.fetch("t", "by_id", 10)["val"] == "c"


def _rollback(client, server):
    tid = client.request("begin")
    client.insert("t", {"id": 11, "val": "r"})
    assert client.request("rollback") == tid
    assert client.fetch("t", "by_id", 11) is None


def _begin_snapshot(client, server):
    tid = client.request("begin_snapshot")
    assert client.fetch("t", "by_id", 1)["id"] == 1
    assert client.request("commit") == tid


def _savepoint(client, server):
    client.begin()
    client.insert("t", {"id": 12, "val": "s"})
    assert isinstance(client.savepoint("a"), int)
    client.commit()
    assert client.fetch("t", "by_id", 12) is not None


def _rollback_to_savepoint(client, server):
    client.begin()
    client.insert("t", {"id": 13, "val": "kept"})
    client.savepoint("a")
    client.insert("t", {"id": 14, "val": "undone"})
    assert client.rollback_to_savepoint("a") is None
    client.commit()
    assert client.fetch("t", "by_id", 13) is not None
    assert client.fetch("t", "by_id", 14) is None


def _insert(client, server):
    rid = client.insert("t", {"id": 15, "val": "i"})
    assert set(rid) == {"page_id", "slot"}


def _delete(client, server):
    assert client.delete_by_key("t", "by_id", 2)["id"] == 2
    assert client.fetch("t", "by_id", 2) is None


def _create_index(client, server):
    client.create_table("u")
    client.create_index("u", "by_id", column="id", unique=True)
    client.insert("u", {"id": 1})
    assert client.fetch("u", "by_id", 1) == {"id": 1}


def _stats(client, server):
    client.ping()
    stats = client.server_stats("server.")
    assert stats and all(name.startswith("server.") for name in stats)


def _prepare(client, server):
    client.begin()
    client.insert("t", {"id": 20, "val": "p"})
    assert client.prepare("g-prepare") == "yes"
    assert client.decide("g-prepare", "commit") == "commit"
    assert client.fetch("t", "by_id", 20) is not None


def _decide(client, server):
    client.begin()
    client.insert("t", {"id": 21, "val": "d"})
    client.prepare("g-decide")
    assert client.decide("g-decide", "abort") == "abort"
    assert client.decide("g-decide", "abort") == "forgotten"
    assert client.fetch("t", "by_id", 21) is None


def _cluster_indoubt(client, server):
    client.begin()
    client.insert("t", {"id": 22, "val": "q"})
    client.prepare("g-indoubt")
    assert [b["gid"] for b in client.cluster_indoubt()] == ["g-indoubt"]
    client.decide("g-indoubt", "abort")
    assert client.cluster_indoubt() == []


def _repl_poll(client, server):
    client.request("repl_handshake", name="s")
    start = client.request("repl_snapshot")["ship_start_lsn"]
    shipped = client.request("repl_poll", name="s", from_lsn=start, wait_seconds=0)
    assert shipped["base_lsn"] == start
    assert start + len(shipped["data"]) <= shipped["flushed_lsn"] + 1


def _repl_ack(client, server):
    client.request("repl_handshake", name="s")
    assert client.request("repl_ack", name="s", lsn=5) == {"acked_lsn": 5}
    assert client.request("repl_ack", name="s", lsn=3) == {"acked_lsn": 5}


def _repl_status(client, server):
    client.request("repl_handshake", name="s")
    client.request("repl_ack", name="s", lsn=7)
    status = client.request("repl_status")
    assert status["subscribers"]["s"]["acked_lsn"] == 7
    assert status["sync"] is False
    assert status["flushed_lsn"] == server.db.log.flushed_lsn


CASES = {
    "hello": lambda c, s: c.request("hello")["version"] == PROTOCOL_V2,
    "ping": lambda c, s: c.ping(),
    "begin": lambda c, s: c.begin().txn_id == c.request("rollback"),
    "begin_snapshot": _begin_snapshot,
    "commit": _commit,
    "rollback": _rollback,
    "savepoint": _savepoint,
    "rollback_to_savepoint": _rollback_to_savepoint,
    "insert": _insert,
    "fetch": lambda c, s: c.fetch("t", "by_id", 1)["id"] == 1,
    "fetch_prefix": lambda c, s: c.fetch_prefix("names", "by_name", "bo")["name"] == "bob",
    "delete": _delete,
    "scan": lambda c, s: [row["id"] for row in c.scan("t", "by_id")] == [1, 2, 3],
    "create_table": lambda c, s: c.create_table("v") is None and "v" in s.db.tables,
    "create_index": _create_index,
    "stats": _stats,
    "close": lambda c, s: c.request("close") == "bye",
    "prepare": _prepare,
    "decide": _decide,
    "cluster_indoubt": _cluster_indoubt,
    "status": lambda c, s: c.server_status() == {"state": "steady", "recovering": False},
    "repl_handshake": lambda c, s: c.request("repl_handshake", name="s")["acked_lsn"] == 0,
    "repl_snapshot": lambda c, s: c.request("repl_snapshot")["catalog"] is not None,
    "repl_poll": _repl_poll,
    "repl_ack": _repl_ack,
    "repl_status": _repl_status,
}


@pytest.mark.parametrize("op", [spec.name for spec in OPS])
def test_op_round_trips(server, op):
    with server.connect_loopback() as client:
        assert CASES[op](client, server) is not False
