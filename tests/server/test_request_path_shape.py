"""The request path's shape: exact I/O calls and allocations per request.

A strict request costs what the protocol needs and no more: one send
and one ``recv`` on each side, no readability probe, and on the inline
path no ``threading.Event``.  A pipelined flush is one client send and
one server batch.  These counts may fall, never rise (DESIGN.md, "The
request path's floor").
"""

from __future__ import annotations

import select
import threading

import pytest

from repro.server import DatabaseServer, ServerConfig
from repro.server.client import DatabaseClient
from repro.server.protocol import FrameConn, SocketTransport, loopback_pair

from tests.conftest import build_db


class CountingTransport(SocketTransport):
    """Counts sends (on entry, so a reply's send is counted before its
    reader wakes) and the reads that returned bytes."""

    def __init__(self, sock) -> None:
        super().__init__(sock)
        self.sends = 0
        self.recvs = 0

    def send_bytes(self, data: bytes) -> None:
        self.sends += 1
        super().send_bytes(data)

    def recv_some(self, limit: int = 65536) -> bytes:
        data = super().recv_some(limit)
        if data:
            self.recvs += 1
        return data

    def reset(self) -> None:
        self.sends = self.recvs = 0


@pytest.fixture
def served(monkeypatch):
    """(server, client, server transport, client transport, probes):
    a session over counting transports; ``probes`` counts calls to
    ``select.select``."""
    probes: list[object] = []
    real_select = select.select

    def counting_select(*args, **kwargs):
        probes.append(args)
        return real_select(*args, **kwargs)

    monkeypatch.setattr(select, "select", counting_select)
    db = build_db()
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    server = DatabaseServer(db, ServerConfig(workers=2)).start(listen=False)
    server_end, client_end = loopback_pair()
    server_side = CountingTransport(server_end._sock)  # noqa: SLF001 - test wraps the socket
    client_side = CountingTransport(client_end._sock)  # noqa: SLF001 - test wraps the socket
    server._spawn_session(server_side)  # noqa: SLF001 - test supplies the session's transport
    client = DatabaseClient(FrameConn(client_side))
    assert client.ping()  # past the hello and its ack
    yield server, client, server_side, client_side, probes
    client.close()
    server.shutdown()
    db.close()


STRICT_REQUESTS = {
    "ping": lambda c: c.ping(),
    "insert": lambda c: c.insert("t", {"id": 1, "val": "a"}),
    "fetch": lambda c: c.fetch("t", "by_id", 1),
    "delete": lambda c: c.delete_by_key("t", "by_id", 1),
}


class TestStrictRequest:
    @pytest.mark.parametrize("op", list(STRICT_REQUESTS))
    def test_one_send_and_one_recv_on_each_side(self, served, op):
        server, client, server_side, client_side, probes = served
        if op in ("fetch", "delete"):
            client.insert("t", {"id": 1, "val": "a"})
        server_side.reset()
        client_side.reset()
        probes.clear()
        STRICT_REQUESTS[op](client)
        assert (client_side.sends, client_side.recvs) == (1, 1)
        assert (server_side.sends, server_side.recvs) == (1, 1)
        assert probes == []

    def test_lone_inline_request_allocates_no_event(self, served, monkeypatch):
        server, client, _, _, _ = served
        made: list[threading.Event] = []

        class CountingEvent(threading.Event):
            def __init__(self) -> None:
                made.append(self)
                super().__init__()

        monkeypatch.setattr(threading, "Event", CountingEvent)
        before = server.db.stats.snapshot()
        client.insert("t", {"id": 2, "val": "b"})  # a write: commit + force
        client.fetch("t", "by_id", 2)
        client.ping()
        diff = server.db.stats.diff(before)
        assert diff.get("server.inline_requests") == 3
        assert not diff.get("server.queued_jobs")
        assert made == []


class TestPipelinedFlush:
    def test_sixteen_deep_flush_is_one_send_and_one_batch(self, served):
        server, client, server_side, client_side, probes = served
        server_side.reset()
        client_side.reset()
        before = server.db.stats.snapshot()
        with client.pipeline(depth=16) as pipe:
            futures = [pipe.insert("t", {"id": 100 + i}) for i in range(16)]
        assert all(f.error is None for f in futures)
        diff = server.db.stats.diff(before)
        assert client_side.sends == 1
        assert server_side.sends == 1  # the batch's replies in one write
        assert diff.get("server.batches") == 1
        assert diff.get("server.requests") == 16
        assert probes == []
