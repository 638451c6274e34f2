"""The lifecycle both wire-protocol front ends share.

:class:`DatabaseServer` and :class:`ShardRouter` listen, spawn session
threads and stop through one :class:`~repro.server.frontend.FrontEnd`,
so each case here runs against both: once ``shutdown()`` returns,
nothing is accepted and no listener or session thread is left, a second
``shutdown()`` does nothing, and a client that drops inside an open
transaction has it rolled back — on every shard it touched, for the
router.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.cluster import Cluster, ShardRouter, shard_for_key
from repro.common.errors import ServerShutdownError
from repro.server.server import DatabaseServer, ServerConfig
from tests.conftest import build_db


class ServerCase:
    prefix = "db"

    def __init__(self) -> None:
        self.db = build_db()
        self.db.create_table("t")
        self.db.create_index("t", "by_id", column="id", unique=True)
        self.front_end = DatabaseServer(self.db, ServerConfig(workers=2))

    def keys(self) -> list[int]:
        return [1, 2]

    def row_on_backends(self, key: int) -> bool:
        txn = self.db.begin()
        try:
            return self.db.fetch(txn, "t", "by_id", key) is not None
        finally:
            self.db.commit(txn)

    def close(self) -> None:
        self.front_end.shutdown()
        self.db.close()


class RouterCase:
    prefix = "router"

    def __init__(self) -> None:
        self.cluster = Cluster(num_shards=2)
        self.cluster.create_table("t")
        self.cluster.create_index("t", "by_id", column="id", unique=True)
        self.front_end = ShardRouter(self.cluster)

    def keys(self) -> list[int]:
        """One key on each shard, so the transaction touches both."""
        first = {shard_for_key(key, 2): key for key in range(20, 0, -1)}
        assert len(first) == 2
        return [first[0], first[1]]

    def row_on_backends(self, key: int) -> bool:
        shard = self.cluster.shards[shard_for_key(key, 2)]
        txn = shard.db.begin()
        try:
            return shard.db.fetch(txn, "t", "by_id", key) is not None
        finally:
            shard.db.commit(txn)

    def close(self) -> None:
        self.front_end.shutdown()
        self.cluster.close()


@pytest.fixture(params=[ServerCase, RouterCase], ids=["server", "router"])
def case(request):
    case = request.param()
    yield case
    case.close()


def _front_end_threads(case, before: set[threading.Thread]) -> list[str]:
    """Live threads of this front end's kinds that it started."""
    names = (f"{case.prefix}-accept", f"{case.prefix}-session-")
    return [
        t.name
        for t in threading.enumerate()
        if t not in before and t.name.startswith(names)
    ]


def test_connect_after_shutdown_spawns_no_session(case):
    before = set(threading.enumerate())
    front_end = case.front_end.start(listen=True)
    address = front_end.address
    front_end.shutdown()
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.settimeout(2.0)
        try:
            sock.connect(address)
        except OSError:
            pass  # refused: nothing listens any more
        time.sleep(0.2)  # room for a stray accept thread to spawn one
        sessions = [
            name for name in _front_end_threads(case, before) if "-session-" in name
        ]
        assert sessions == []


def test_no_listener_or_session_thread_outlives_shutdown(case):
    before = set(threading.enumerate())
    front_end = case.front_end.start(listen=True)
    tcp = front_end.connect()
    loopback = front_end.connect_loopback()
    assert tcp.ping() and loopback.ping()
    front_end.shutdown()
    assert _front_end_threads(case, before) == []
    tcp.close()
    loopback.close()


def test_second_shutdown_does_nothing(case, monkeypatch):
    front_end = case.front_end.start(listen=True)
    with front_end.connect_loopback() as client:
        assert client.ping()
    first = front_end.shutdown()

    def stop_again(*args):
        raise AssertionError("a second shutdown ran the stop step")

    monkeypatch.setattr(front_end, "_stop", stop_again)
    assert front_end.shutdown() == first


def test_connect_loopback_after_shutdown_raises(case):
    front_end = case.front_end.start(listen=False)
    front_end.shutdown()
    with pytest.raises(ServerShutdownError):
        front_end.connect_loopback()


def test_disconnect_inside_a_transaction_rolls_it_back(case):
    before = set(threading.enumerate())
    front_end = case.front_end.start(listen=False)
    client = front_end.connect_loopback()
    client.begin()
    for key in case.keys():
        client.insert("t", {"id": key, "val": "open"})
    (session,) = [
        t for t in threading.enumerate()
        if t not in before and t.name.startswith(f"{case.prefix}-session-")
    ]
    client._conn.close()  # noqa: SLF001 - drop the line without a goodbye
    session.join(10.0)  # the session rolls back before its thread ends
    assert not session.is_alive()
    assert not any(case.row_on_backends(key) for key in case.keys())
    with front_end.connect_loopback() as check:
        assert all(check.fetch("t", "by_id", key) is None for key in case.keys())
