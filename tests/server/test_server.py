"""DatabaseServer: sessions, admission control, timeouts, shutdown.

Most tests run loopback (socketpair, no TCP stack); TestTcp proves the
same code path over a real localhost socket.
"""

from __future__ import annotations

import threading

import pytest

from repro.common.errors import (
    RequestTimeoutError,
    ServerError,
    ServerOverloadedError,
    ServerShutdownError,
    SessionStateError,
    UniqueKeyViolationError,
)
from repro.server import DatabaseServer, ServerConfig
from repro.server.session import Session

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


def _join_sessions(server: DatabaseServer, timeout: float = 5.0) -> None:
    """Wait for every session the server started to end, by joining
    their threads: a session thread rolls back its transaction and
    forgets the session before it exits."""
    for thread in list(server._threads):  # noqa: SLF001 - test joins the session threads
        if thread.name.startswith("db-session-"):
            thread.join(timeout)
            assert not thread.is_alive(), f"{thread.name} did not end"


class TestBasicOps:
    def test_ping_and_autocommit_crud(self, server):
        with server.connect_loopback() as client:
            assert client.ping()
            rid = client.insert("t", {"id": 1, "val": "a"})
            assert set(rid) == {"page_id", "slot"}
            assert client.fetch("t", "by_id", 1)["val"] == "a"
            client.delete_by_key("t", "by_id", 1)
            assert client.fetch("t", "by_id", 1) is None

    def test_explicit_transaction_commit_and_rollback(self, server):
        with server.connect_loopback() as client:
            with client.transaction():
                client.insert("t", {"id": 2})
            client.begin()
            client.insert("t", {"id": 3})
            client.rollback()
            assert client.fetch("t", "by_id", 2) is not None
            assert client.fetch("t", "by_id", 3) is None

    def test_statement_error_keeps_txn_alive(self, server):
        """A unique-key violation inside an explicit transaction rolls
        back just the statement (savepoint), not the transaction."""
        with server.connect_loopback() as client:
            client.insert("t", {"id": 4})
            client.begin()
            client.insert("t", {"id": 5})
            with pytest.raises(UniqueKeyViolationError):
                client.insert("t", {"id": 4})
            client.insert("t", {"id": 6})
            client.commit()
            assert client.fetch("t", "by_id", 5) is not None
            assert client.fetch("t", "by_id", 6) is not None

    def test_double_begin_rejected(self, server):
        with server.connect_loopback() as client:
            client.begin()
            with pytest.raises(SessionStateError):
                client.begin()
            client.rollback()

    def test_commit_without_begin_rejected(self, server):
        with server.connect_loopback() as client:
            with pytest.raises(SessionStateError):
                client.commit()

    def test_scan_respects_limit_cap(self, server):
        with server.connect_loopback() as client:
            for key in range(30):
                client.insert("t", {"id": 100 + key})
            rows = client.scan("t", "by_id", low=100, high=200, limit=7)
            assert len(rows) == 7
            # Asking beyond MAX_SCAN_ROWS is silently capped.
            rows = client.scan("t", "by_id", low=100, high=200, limit=10**9)
            assert len(rows) == 30

    def test_unknown_op_is_protocol_error(self, server):
        with server.connect_loopback() as client:
            with pytest.raises(ServerError):
                client.request("no_such_op")

    def test_server_stats_prefix_filter(self, server):
        with server.connect_loopback() as client:
            client.ping()
            stats = client.server_stats(prefix="server.")
            assert stats.get("server.requests", 0) >= 1
            assert all(name.startswith("server.") for name in stats)


class TestConcurrentSessions:
    def test_disjoint_writers(self, server):
        errors: list[Exception] = []

        def writer(base: int) -> None:
            try:
                with server.connect_loopback() as client:
                    for i in range(10):
                        client.insert("t", {"id": base + i})
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(1000 * (w + 1),)) for w in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        assert errors == []
        with server.connect_loopback() as client:
            for w in range(6):
                for i in range(10):
                    assert client.fetch("t", "by_id", 1000 * (w + 1) + i) is not None

    def test_sessions_are_forgotten_on_close(self, server):
        clients = [server.connect_loopback() for _ in range(4)]
        # A session is registered before connect_loopback returns.
        assert server.session_count == 4
        for client in clients:
            client.close()
        _join_sessions(server)
        assert server.session_count == 0


class TestAdmissionControl:
    def test_overload_rejects_with_backpressure(self):
        db = build_db()
        db.create_table("t")
        db.create_index("t", "by_id", column="id", unique=True)
        # One worker, one queue slot, no admission patience: wedge the
        # worker and the next requests must bounce.
        server = DatabaseServer(
            db,
            ServerConfig(
                workers=1, queue_depth=1, admission_timeout_seconds=0.05
            ),
        ).start(listen=False)
        # Hold the engine: an explicit txn keeps a lock, and a contender
        # insert on the same key wedges the single worker behind it.
        holder = server.connect_loopback()
        holder.begin()
        holder.insert("t", {"id": 1})
        contender_waits = lock_wait_queued(db)

        def contender():
            client = server.connect_loopback()
            try:
                client.insert("t", {"id": 1})  # blocks on holder's lock
            except Exception:  # noqa: BLE001 - lock timeout / overload, either way
                pass
            finally:
                client.close()

        thread = threading.Thread(target=contender)
        thread.start()
        # Parked on the holder's lock, the contender occupies the worker.
        assert contender_waits.wait(5.0)
        assert server.executing_count >= 1
        # Worker busy; fill the single queue slot, then overflow it.
        fillers = [server.connect_loopback() for _ in range(4)]

        bounced = threading.Event()

        def poke(client, results):
            try:
                client.ping()
                results.append("ok")
            except ServerOverloadedError:
                results.append("overload")
                bounced.set()
            except ServerError:
                results.append("other")

        results: list[str] = []
        poke_threads = [
            threading.Thread(target=poke, args=(c, results)) for c in fillers
        ]
        for t in poke_threads:
            t.start()
        # Wait for a bounce, not for every poke: the pokes that won the
        # queue slot stay queued behind the wedged worker until the
        # holder goes away.
        assert bounced.wait(10.0)
        # Dropping the holder's connection rolls its transaction back
        # server-side and unwedges the worker (a polite rollback request
        # could itself bounce off the still-full queue).
        holder._conn.close()
        for t in poke_threads:
            t.join(15.0)
        thread.join(15.0)
        assert results.count("overload") >= 1
        assert db.stats.snapshot().get("server.rejected_overload", 0) >= 1
        for c in fillers:
            c._conn.close()
        server.shutdown()
        db.close()

    def test_request_timeout_drops_session(self):
        db = build_db(lock_timeout_seconds=30.0)
        db.create_table("t")
        db.create_index("t", "by_id", column="id", unique=True)
        server = DatabaseServer(
            db, ServerConfig(workers=2, request_timeout_seconds=0.2)
        ).start(listen=False)
        holder = server.connect_loopback()
        holder.begin()
        holder.insert("t", {"id": 1})

        victim = server.connect_loopback()
        with pytest.raises(ServerError) as info:
            victim.insert("t", {"id": 1})  # parks on the lock past 0.2s
        # Either the timeout notice arrived (RequestTimeoutError) or the
        # connection was already dropped (ConnectionLost).
        assert isinstance(info.value, RequestTimeoutError) or info.value.kind in (
            "RequestTimeoutError",
            "ConnectionLost",
        )
        holder.rollback()
        # The server counts a timeout before it writes the notice or
        # drops the line, so the victim's error implies the count.
        assert db.stats.snapshot().get("server.request_timeouts", 0) >= 1
        holder.close()
        victim.close()
        server.shutdown()
        db.close()


class TestInlineExecution:
    """A lone request runs on its session's connection thread when an
    engine slot is free; batches and requests that find every slot busy
    take the queue and the pool."""

    @staticmethod
    def _spy_ping(monkeypatch, hold: threading.Event | None = None):
        """Record the executing thread of every ping; with ``hold``,
        the first ping signals ``entered`` and blocks until ``hold``."""
        threads: list[str] = []
        entered = threading.Event()
        original = Session._op_ping

        def spy(self, request):
            threads.append(threading.current_thread().name)
            if hold is not None and not entered.is_set():
                entered.set()
                hold.wait(10.0)
            return original(self, request)

        monkeypatch.setattr(Session, "_op_ping", spy)
        return threads, entered

    def test_lone_request_executes_on_its_session_thread(self, server, monkeypatch):
        threads, _ = self._spy_ping(monkeypatch)
        with server.connect_loopback() as client:
            assert client.ping()
            snap = server.db.stats.snapshot()
        assert len(threads) == 1 and threads[0].startswith("db-session-")
        assert snap.get("server.inline_requests", 0) == 1
        assert snap.get("server.queued_jobs", 0) == 0

    def test_request_takes_the_queue_when_every_slot_is_busy(self, monkeypatch):
        db = build_db()
        server = DatabaseServer(db, ServerConfig(workers=1)).start(listen=False)
        hold = threading.Event()
        threads, entered = self._spy_ping(monkeypatch, hold)
        queued = threading.Event()
        put = server._queue.put

        def spy_put(job, *args, **kwargs):
            put(job, *args, **kwargs)
            queued.set()

        monkeypatch.setattr(server._queue, "put", spy_put)
        holder, second = server.connect_loopback(), server.connect_loopback()
        results: list[bool] = []
        first = threading.Thread(target=lambda: results.append(holder.ping()))
        first.start()
        assert entered.wait(5.0)  # the only slot is held, inline
        later = threading.Thread(target=lambda: results.append(second.ping()))
        later.start()
        assert queued.wait(5.0)  # no slot free: the request was queued
        hold.set()
        first.join(5.0)
        later.join(5.0)
        assert results == [True, True]
        assert threads[0].startswith("db-session-")
        assert threads[1].startswith("db-worker-")
        snap = db.stats.snapshot()
        assert snap.get("server.inline_requests", 0) == 1
        assert snap.get("server.queued_jobs", 0) == 1
        holder.close()
        second.close()
        server.shutdown()
        db.close()

    def test_graceful_shutdown_drains_an_inline_request(self, monkeypatch):
        """A commit paused in its flush, inline on its session thread,
        holds shutdown(drain=True) until it finishes — and it commits."""
        db = build_db(group_commit=True)
        db.create_table("t")
        db.create_index("t", "by_id", column="id", unique=True)
        server = DatabaseServer(db, ServerConfig(workers=2)).start(listen=False)
        draining = threading.Event()
        executing = DatabaseServer.executing_count

        def spy_executing(self):
            draining.set()
            return executing.fget(self)

        monkeypatch.setattr(DatabaseServer, "executing_count", property(spy_executing))
        client = server.connect_loopback()
        db.failpoints.arm_pause(FLUSH_WINDOW)
        writer = threading.Thread(target=lambda: client.insert("t", {"id": 7}))
        writer.start()
        db.failpoints.wait_until_paused(FLUSH_WINDOW)
        assert draining.is_set() is False
        drained: list[bool] = []
        stopper = threading.Thread(target=lambda: drained.append(server.shutdown()))
        stopper.start()
        assert draining.wait(5.0)  # the drain loop is polling...
        assert stopper.is_alive()  # ...and the inline commit holds it
        db.failpoints.release(FLUSH_WINDOW)
        stopper.join(15.0)
        writer.join(15.0)
        assert drained == [True]
        assert db.stats.snapshot().get("server.drained_clean", 0) == 1
        txn = db.begin()
        assert db.fetch(txn, "t", "by_id", 7) is not None
        db.commit(txn)
        client.close()
        db.close()


class TestShutdown:
    def test_graceful_drain_rolls_back_open_txns_and_checkpoints(self):
        db = build_db()
        db.create_table("t")
        db.create_index("t", "by_id", column="id", unique=True)
        server = DatabaseServer(db, ServerConfig(workers=2)).start(listen=False)
        client = server.connect_loopback()
        client.insert("t", {"id": 1})
        client.begin()
        client.insert("t", {"id": 2})  # left open across shutdown
        before = db.stats.snapshot().get("recovery.checkpoints_taken", 0)
        assert server.shutdown(drain=True) is True
        client.close()
        after = db.stats.snapshot()
        assert after.get("server.drained_clean", 0) == 1
        # The open transaction was rolled back; no txn leaks.
        assert db.txns.active_transactions() == []
        # Final checkpoint happened.
        assert after.get("recovery.checkpoints_taken", before) >= before
        txn = db.begin()
        assert db.fetch(txn, "t", "by_id", 1) is not None
        assert db.fetch(txn, "t", "by_id", 2) is None
        db.commit(txn)
        db.close()

    def test_new_requests_rejected_while_stopping(self):
        db = build_db()
        db.create_table("t")
        server = DatabaseServer(db, ServerConfig(workers=1)).start(listen=False)
        client = server.connect_loopback()
        server.shutdown()
        with pytest.raises(ServerError) as info:
            client.ping()
        assert isinstance(info.value, ServerShutdownError) or info.value.kind in (
            "ServerShutdownError",
            "ConnectionLost",
        )
        client.close()
        db.close()

    def test_shutdown_idempotent(self):
        db = build_db()
        server = DatabaseServer(db, ServerConfig(workers=1)).start(listen=False)
        assert server.shutdown() is True
        assert server.shutdown() is True
        db.close()

    def test_connect_loopback_after_shutdown_raises(self):
        db = build_db()
        server = DatabaseServer(db, ServerConfig(workers=1)).start(listen=False)
        server.shutdown()
        with pytest.raises(ServerShutdownError):
            server.connect_loopback()
        db.close()

    def test_abort_racing_a_session_spawn_joins_only_started_threads(
        self, monkeypatch
    ):
        """``abort()`` lands while a session thread is being spawned: it
        must not find the thread listed before it has started (joining
        it would raise), and the spawned session is closed with the rest."""
        db = build_db()
        server = DatabaseServer(db, ServerConfig(workers=1)).start(listen=False)
        spawning, release = threading.Event(), threading.Event()
        start = threading.Thread.start

        def slow_session_start(thread):
            if thread.name.startswith("db-session-"):
                spawning.set()
                release.wait(10.0)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", slow_session_start)

        def connect():
            try:
                server.connect_loopback().close()
            except (OSError, ServerError):
                pass  # the abort closed the new session's transport first

        errors: list[BaseException] = []

        def abort():
            try:
                server.abort()
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        connecting = threading.Thread(target=connect)
        connecting.start()
        assert spawning.wait(10.0)
        aborting = threading.Thread(target=abort)
        aborting.start()
        aborting.join(0.5)  # an abort that does not wait for the spawn ends here
        release.set()
        connecting.join(10.0)
        aborting.join(10.0)
        assert not connecting.is_alive() and not aborting.is_alive()
        assert errors == []
        _join_sessions(server)
        db.close()


class TestTcp:
    def test_crud_over_real_socket(self):
        db = build_db()
        db.create_table("t")
        db.create_index("t", "by_id", column="id", unique=True)
        server = DatabaseServer(db, ServerConfig(workers=2)).start(listen=True)
        host, port = server.address
        assert host == "127.0.0.1" and port > 0
        with server.connect() as client:
            assert client.ping()
            client.insert("t", {"id": 1, "val": "tcp"})
            assert client.fetch("t", "by_id", 1)["val"] == "tcp"
            with pytest.raises(UniqueKeyViolationError):
                client.insert("t", {"id": 1})
        # Two concurrent TCP sessions.
        a, b = server.connect(), server.connect()
        a.insert("t", {"id": 2})
        b.insert("t", {"id": 3})
        assert a.fetch("t", "by_id", 3) is not None
        assert b.fetch("t", "by_id", 2) is not None
        a.close()
        b.close()
        server.shutdown()
        db.close()

    def test_client_disconnect_rolls_back_open_txn(self):
        db = build_db()
        db.create_table("t")
        db.create_index("t", "by_id", column="id", unique=True)
        server = DatabaseServer(db, ServerConfig(workers=2)).start(listen=True)
        client = server.connect()
        client.begin()
        client.insert("t", {"id": 9})
        # Drop the line without commit: server must roll the txn back.
        client._conn.close()
        _join_sessions(server)
        assert len(db.txns.active_transactions()) == 0
        with server.connect() as probe:
            assert probe.fetch("t", "by_id", 9) is None
        server.shutdown()
        db.close()
