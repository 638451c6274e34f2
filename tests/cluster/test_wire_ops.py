"""Every registered wire op through the cluster's two front ends.

The router test is parametrized over :data:`repro.codec.ops.OPS`: each
op either round-trips through a :class:`ShardRouter` session or is
refused with the error docs/API.md documents for the router —
``SessionStateError`` for savepoints and the 2PC ops, ``ProtocolError``
for the ops the router does not serve.  A new op without an entry here
fails.  The :class:`ClusterClient` test drives its fan-out ops.
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, ShardRouter
from repro.codec.ops import OPS
from repro.common.errors import ProtocolError, SessionStateError


@pytest.fixture(scope="module")
def cluster():
    with Cluster(num_shards=2) as c:
        c.create_table("t")
        c.create_index("t", "by_id", column="id", unique=True)
        c.create_table("names")
        c.create_index("names", "by_name", column="name", unique=True)
        client = c.client()
        for key in range(1, 5):
            client.insert("t", {"id": key, "val": "v"})
        for name in ("alice", "bob", "bobby"):
            client.insert("names", {"id": name, "name": name})
        client.close()
        yield c


@pytest.fixture
def router(cluster):
    router = ShardRouter(cluster).start(listen=False)
    yield router
    router.shutdown()


def _begin(client):
    txn = client.begin()
    client.insert("t", {"id": 100, "val": "rolled back"})
    assert client.request("rollback") == txn.txn_id
    assert client.fetch("t", "by_id", 100) is None


def _commit(client):
    with client.transaction():
        client.insert("t", {"id": 101, "val": "a"})
        client.insert("t", {"id": 102, "val": "b"})
    assert [client.fetch("t", "by_id", k)["val"] for k in (101, 102)] == ["a", "b"]


def _create_index(client):
    client.create_table("u")
    client.create_index("u", "by_id", column="id", unique=True)
    client.insert("u", {"id": 1})
    assert client.fetch("u", "by_id", 1) == {"id": 1}


def _delete(client):
    client.insert("t", {"id": 103, "val": "d"})
    assert client.delete_by_key("t", "by_id", 103)["id"] == 103
    assert client.fetch("t", "by_id", 103) is None


ROUND_TRIPS = {
    "ping": lambda c: c.ping(),
    "begin": _begin,
    "commit": _commit,
    "rollback": _begin,
    "insert": lambda c: c.insert("t", {"id": 104, "val": "i"}) is not None,
    "fetch": lambda c: c.fetch("t", "by_id", 1)["id"] == 1,
    "fetch_prefix": lambda c: c.fetch_prefix("names", "by_name", "bob")["name"] == "bob",
    "delete": _delete,
    "scan": lambda c: [r["id"] for r in c.scan("t", "by_id", high=4)] == [1, 2, 3, 4],
    "create_table": lambda c: c.create_table("w") is None,
    "create_index": _create_index,
    "stats": lambda c: bool(c.server_stats("buffer.")),
    "status": lambda c: len(c.server_status()["shards"]) == 2,
    "close": lambda c: c.request("close") == "bye",
}

#: Ops the router refuses, and the error it refuses them with.
REFUSED = {
    "savepoint": SessionStateError,
    "rollback_to_savepoint": SessionStateError,
    "prepare": SessionStateError,
    "decide": SessionStateError,
    "cluster_indoubt": SessionStateError,
    "hello": ProtocolError,
    "begin_snapshot": ProtocolError,
    "repl_handshake": ProtocolError,
    "repl_snapshot": ProtocolError,
    "repl_poll": ProtocolError,
    "repl_ack": ProtocolError,
    "repl_status": ProtocolError,
}


@pytest.mark.parametrize("op", [spec.name for spec in OPS])
def test_router_op(router, op):
    with router.connect_loopback() as client:
        if op in REFUSED:
            with pytest.raises(REFUSED[op]):
                client.request(op)
            assert client.ping(), "a refused op leaves the session usable"
        else:
            assert ROUND_TRIPS[op](client) is not False


def test_cluster_client_ops(cluster):
    with cluster.client() as client:
        assert client.ping()
        assert client.fetch_prefix("names", "by_name", "bob")["name"] == "bob"
        assert client.fetch_prefix("names", "by_name", "carol") is None
        client.create_table("x")
        client.create_index("x", "by_id", column="id", unique=True)
        for key in range(6):
            client.insert("x", {"id": key})
        assert {client.shard_for(key) for key in range(6)} == {0, 1}
        assert [row["id"] for row in client.scan("x", "by_id")] == list(range(6))
        assert all(shard.db.tables["x"] for shard in cluster.shards)
        assert not client.closed
    assert client.closed
