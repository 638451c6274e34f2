"""Protocol v2 end-to-end: negotiation, pipelining, batch execution,
structured errors, and the commit path a batch shares with every
other request.

Everything here runs against a real server over loopback transports —
the same code path TCP takes, minus the kernel socket.
"""

from __future__ import annotations

import itertools
import json
import threading

import pytest

from repro.codec.frames import MAGIC, PROTOCOL_V2, try_parse_frame
from repro.codec.ops import OP_HELLO
from repro.common.errors import (
    CommitNotDurableError,
    DatabaseClosedError,
    ProtocolError,
    ServerError,
    SessionStateError,
    UniqueKeyViolationError,
)
from repro.server import DatabaseClient, DatabaseServer, FrameConn, ServerConfig
from repro.server.protocol import loopback_pair

from tests.conftest import build_db, lock_wait_queued

FLUSH_WINDOW = "log.group_commit.before_flush"


@pytest.fixture
def server():
    db = build_db()
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    srv = DatabaseServer(db, ServerConfig(workers=4)).start(listen=False)
    yield srv
    srv.shutdown()
    db.close()


def _read_until_closed(transport) -> bytes:
    chunks = []
    try:
        while chunk := transport.recv_some():
            chunks.append(chunk)
    except ConnectionResetError:
        pass  # the server hung up with bytes of ours still unread
    return b"".join(chunks)


class TestNegotiation:
    def test_default_client_speaks_v2(self):
        server_end, client_end = loopback_pair()
        DatabaseClient(FrameConn(client_end))
        assert server_end.recv_exactly(len(MAGIC)) == MAGIC
        hello, _ = try_parse_frame(server_end.recv_some())
        assert hello.opcode == OP_HELLO.code
        assert hello.payload["versions"] == [PROTOCOL_V2]
        server_end.close()
        client_end.close()

    def test_hello_op_reports_negotiated_version(self, server):
        with server.connect_loopback() as client:
            assert client.request("hello")["version"] == PROTOCOL_V2

    def test_stray_v1_peer_is_dropped_cleanly(self, server):
        """A peer speaking length-prefixed JSON gets one error frame and
        a closed connection; its session thread ends and frees its
        slot, and the server keeps serving binary clients."""
        server_end, client_end = loopback_pair()
        session = server._spawn_session(server_end)
        (thread,) = [
            t for t in server._threads if t.name == f"db-session-{session.session_id}"
        ]
        body = json.dumps({"op": "ping"}).encode()
        client_end.send_bytes(len(body).to_bytes(4, "big") + body)
        reply = _read_until_closed(client_end)
        thread.join(5.0)
        assert not thread.is_alive()
        assert server.session_count == 0
        frame, end = try_parse_frame(reply)
        assert end == len(reply)
        assert frame.is_error and frame.payload["error"] == "ProtocolError"
        client_end.close()
        with server.connect_loopback() as client:
            assert client.ping()


class TestPipelining:
    def test_responses_match_their_requests(self, server):
        with server.connect_loopback() as client:
            with client.pipeline(depth=64) as pipe:
                inserts = [
                    pipe.insert("t", {"id": i, "name": f"row-{i}"})
                    for i in range(20)
                ]
                pings = [pipe.ping() for _ in range(5)]
            for future in inserts:
                assert "slot" in future.result()
            assert all(p.result() == "pong" for p in pings)
            # Each fetch future must carry *its* row, not a neighbour's.
            with client.pipeline() as pipe:
                fetches = [pipe.fetch("t", "by_id", i) for i in range(20)]
            for i, future in enumerate(fetches):
                assert future.result()["name"] == f"row-{i}"

    def test_mid_pipeline_error_settles_only_that_future(self, server):
        with server.connect_loopback() as client:
            client.insert("t", {"id": 1, "name": "one"})
            with client.pipeline() as pipe:
                before = pipe.insert("t", {"id": 2, "name": "two"})
                dup = pipe.insert("t", {"id": 1, "name": "dup"})
                after = pipe.insert("t", {"id": 3, "name": "three"})
            assert "slot" in before.result()
            assert "slot" in after.result()
            assert isinstance(dup.error, UniqueKeyViolationError)
            with pytest.raises(UniqueKeyViolationError) as excinfo:
                dup.result()
            # Structured args crossed the v2 wire: the key bytes.
            assert isinstance(excinfo.value.key_value, bytes)

    def test_unflushed_future_refuses_result(self, server):
        with server.connect_loopback() as client:
            pipe = client.pipeline()
            future = pipe.ping()
            with pytest.raises(ServerError, match="not flushed"):
                future.result()
            pipe.flush()
            assert future.result() == "pong"

    def test_auto_flush_at_depth(self, server):
        with server.connect_loopback() as client:
            pipe = client.pipeline(depth=4)
            futures = [pipe.ping() for _ in range(4)]
            # Depth reached: the queue flushed itself.
            assert all(f.done for f in futures)
            assert pipe.pending == 0
            pipe.flush()  # no-op on an empty queue

    def test_exception_discards_queue(self, server):
        with server.connect_loopback() as client:
            with pytest.raises(RuntimeError, match="abandon"):
                with client.pipeline() as pipe:
                    future = pipe.ping()
                    raise RuntimeError("abandon")
            assert not future.done
            assert client.ping()  # connection still healthy

    def test_unencodable_argument_fails_only_its_request(self, server):
        """An argument the codec cannot encode raises from the
        ``request()`` that queued it; the requests queued before it
        still flush and the client stays usable."""
        with server.connect_loopback() as client:
            pipe = client.pipeline()
            first = pipe.insert("t", {"id": 700, "name": "ok"})
            with pytest.raises(ProtocolError, match="not codec-encodable"):
                pipe.insert("t", {"id": 701, "name": object()})
            assert pipe.pending == 1
            pipe.flush()
            assert "slot" in first.result()
            assert client.ping()
            assert not client.closed

    def test_lost_connection_fails_every_queued_future(self, server):
        """The server goes away with requests queued: the flush raises
        the connection-lost error, and every queued future settles with
        it instead of waiting for a reply."""
        with server.connect_loopback() as client:
            pipe = client.pipeline()
            pings = [pipe.ping() for _ in range(3)]
            server.abort()
            with pytest.raises(ServerError) as excinfo:
                pipe.flush()
            assert excinfo.value.kind == "ConnectionLost"
            assert all(f.done and f.error is excinfo.value for f in pings)
            assert client.closed

    def test_transaction_inside_pipeline(self, server):
        with server.connect_loopback() as client:
            with client.pipeline() as pipe:
                pipe.begin()
                writes = [
                    pipe.insert("t", {"id": 200 + i, "name": "batched"})
                    for i in range(10)
                ]
                commit = pipe.commit()
            assert commit.result() > 0
            assert all("slot" in w.result() for w in writes)
            assert client.fetch("t", "by_id", 205)["name"] == "batched"


class TestBatchExecution:
    def test_pipelined_requests_batch_server_side(self, server):
        with server.connect_loopback() as client:
            with client.pipeline() as pipe:
                for i in range(32):
                    pipe.insert("t", {"id": 300 + i, "name": "b"})
            stats = client.server_stats()
            assert stats.get("server.batches", 0) >= 1
            assert stats.get("server.batch_peak", 0) >= 2

    def test_batch_with_failures_keeps_order_and_corr_ids(self, server):
        with server.connect_loopback() as client:
            with client.pipeline() as pipe:
                futures = [
                    pipe.insert("t", {"id": 400 + (i % 4), "name": "x"})
                    for i in range(16)
                ]
            succeeded = [f for f in futures if f.error is None]
            failed = [f for f in futures if f.error is not None]
            assert len(succeeded) == 4  # one winner per distinct id
            assert len(failed) == 12
            assert all(
                isinstance(f.error, UniqueKeyViolationError) for f in failed
            )

    def test_direct_ops_interleave_with_batches(self, server):
        with server.connect_loopback() as client:
            with client.pipeline() as pipe:
                first = pipe.insert("t", {"id": 500, "name": "a"})
                stats = pipe.request("stats", prefix="server.")
                second = pipe.insert("t", {"id": 501, "name": "b"})
            assert "slot" in first.result()
            assert isinstance(stats.result(), dict)
            assert "slot" in second.result()


class TestCommitPath:
    def test_contender_waits_for_the_commit_then_sees_the_key(self):
        """A contender parked on a writer's key lock is woken by the
        writer's ordinary commit and then finds the key taken."""
        db = build_db()
        try:
            db.create_table("t")
            db.create_index("t", "by_id", column="id", unique=True)
            writer = db.begin()
            db.insert(writer, "t", {"id": 1, "name": "first"})
            queued = lock_wait_queued(db)
            outcome: list[object] = []

            def contender() -> None:
                txn = db.begin()
                try:
                    db.insert(txn, "t", {"id": 1, "name": "second"})
                    db.commit(txn)
                    outcome.append("committed")
                except UniqueKeyViolationError as exc:
                    db.rollback(txn)
                    outcome.append(exc)

            thread = threading.Thread(target=contender)
            thread.start()
            assert queued.wait(10)
            assert outcome == []
            db.commit(writer)
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert len(outcome) == 1
            assert isinstance(outcome[0], UniqueKeyViolationError)
            reader = db.begin()
            assert db.fetch(reader, "t", "by_id", 1)["name"] == "first"
            db.commit(reader)
        finally:
            db.close()

    def test_crash_inside_a_batch_answers_each_commit_by_its_outcome(self):
        """The second autocommit write of a pipelined batch is paused
        before its log write when the crash lands: the first response
        is acknowledged and survives restart, the paused one reports
        its commit not durable, and no later response claims one."""
        db = build_db()
        db.create_table("t")
        db.create_index("t", "by_id", column="id", unique=True)
        server = DatabaseServer(db, ServerConfig(workers=2)).start(listen=False)
        hits = itertools.count()
        db.failpoints.arm_pause(FLUSH_WINDOW, when=lambda: next(hits) == 1)
        client = server.connect_loopback()
        pipe = client.pipeline()
        futures = [pipe.insert("t", {"id": i, "name": "b"}) for i in range(4)]
        flusher = threading.Thread(target=pipe.flush)
        flusher.start()
        db.failpoints.wait_until_paused(FLUSH_WINDOW)
        db.crash()
        flusher.join(timeout=15)
        assert not flusher.is_alive()
        server.abort()
        client.close()
        assert db.stats.snapshot().get("server.batch_peak", 0) == 4
        first, paused, *later = futures
        assert "slot" in first.result()
        assert isinstance(paused.error, CommitNotDurableError)
        assert all(f.error is not None for f in later)
        db.restart()
        try:
            txn = db.begin()
            assert db.fetch(txn, "t", "by_id", 0)["name"] == "b"
            assert [db.fetch(txn, "t", "by_id", i) for i in (1, 2, 3)] == [None] * 3
            db.commit(txn)
        finally:
            db.close()

    def test_readonly_commit_fast_path(self):
        db = build_db()
        try:
            db.create_table("t")
            db.create_index("t", "by_id", column="id", unique=True)
            seed = db.begin()
            db.insert(seed, "t", {"id": 1, "name": "x"})
            db.commit(seed)
            reader = db.begin()
            assert db.fetch(reader, "t", "by_id", 1)
            db.commit(reader)
            assert db.stats.snapshot().get("txn.readonly_commits", 0) == 1
        finally:
            db.close()

    def test_readonly_fast_path_still_checks_halt(self):
        db = build_db()
        try:
            db.create_table("t")
            reader = db.begin()
            retired = db.txns
            db.crash()
            # The retired manager must fail the commit loudly even
            # though the read-only fast path writes no log records.
            with pytest.raises(DatabaseClosedError):
                retired.commit(reader)
            db.restart()
        finally:
            db.close()


class TestSessionState:
    def test_corr_ids_echo_on_error_responses(self, server):
        with server.connect_loopback() as client:
            with client.pipeline() as pipe:
                bad = pipe.request("commit")  # no transaction open
                good = pipe.ping()
            assert isinstance(bad.error, SessionStateError)
            assert good.result() == "pong"
