"""Races on the request path, staged without sleeps.

An inline request whose deadline fires exactly as it finishes gets
either its reply or the timeout notice, never both and never neither;
a lone request that finds every engine slot taken goes through the
queue and completes.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.common.errors import RequestTimeoutError
from repro.server import DatabaseServer, ServerConfig
from repro.server.session import Session

from tests.conftest import build_db


@pytest.fixture
def server():
    db = build_db()
    srv = DatabaseServer(db, ServerConfig(workers=1)).start(listen=False)
    yield srv
    srv.shutdown()
    db.close()


def _capture_jobs(server: DatabaseServer, monkeypatch) -> list:
    """Every job registered with the deadline watcher, in order."""
    jobs: list = []
    add = server._deadlines.add  # noqa: SLF001 - test sees the registered jobs

    def spy_add(job) -> None:
        jobs.append(job)
        add(job)

    monkeypatch.setattr(server._deadlines, "add", spy_add)  # noqa: SLF001
    return jobs


class TestDeadlineAtFinish:
    def test_deadline_before_the_finish_sends_only_the_notice(
        self, server, monkeypatch
    ):
        jobs = _capture_jobs(server, monkeypatch)
        entered, resume = threading.Event(), threading.Event()
        original = Session._op_ping

        def held_ping(self, request):
            entered.set()
            assert resume.wait(10.0)
            return original(self, request)

        monkeypatch.setattr(Session, "_op_ping", held_ping)
        client = server.connect_loopback()
        outcome: list[object] = []

        def ping() -> None:
            try:
                outcome.append(client.ping())
            except RequestTimeoutError as exc:
                outcome.append(exc)

        thread = threading.Thread(target=ping)
        thread.start()
        assert entered.wait(5.0)
        # The watcher fires while the op still runs: it wins.
        assert server._time_out(jobs[0])  # noqa: SLF001 - the watcher's own call
        resume.set()
        thread.join(5.0)
        assert len(outcome) == 1 and isinstance(outcome[0], RequestTimeoutError)
        # No reply follows the notice: the session dropped the line.
        assert client._conn.read_message() is None  # noqa: SLF001 - read past the notice
        assert server.db.stats.get("server.request_timeouts") == 1
        client.close()

    def test_deadline_after_the_finish_sends_only_the_reply(
        self, server, monkeypatch
    ):
        jobs = _capture_jobs(server, monkeypatch)
        fired: list[bool] = []
        discard = server._deadlines.discard  # noqa: SLF001

        def expire_then_discard(job) -> None:
            # The watcher fires after the op settled its job, before the
            # session thread deregisters it: the op wins.
            fired.append(server._time_out(job))  # noqa: SLF001
            discard(job)

        monkeypatch.setattr(server._deadlines, "discard", expire_then_discard)  # noqa: SLF001
        with server.connect_loopback() as client:
            assert client.ping()
            assert client.ping()  # the reply stream is still in step
        # Both pings and the close: every expiry found its job finished.
        assert fired == [False, False, False]
        assert len(jobs) == 3
        assert server.db.stats.get("server.request_timeouts") == 0


class TestEverySlotTaken:
    def test_lone_request_goes_through_the_queue_and_completes(
        self, server, monkeypatch
    ):
        queued = threading.Event()
        put = server._queue.put  # noqa: SLF001 - test sees the queue hand-off

        def spy_put(job, *args, **kwargs) -> None:
            put(job, *args, **kwargs)
            queued.set()

        monkeypatch.setattr(server._queue, "put", spy_put)  # noqa: SLF001
        client = server.connect_loopback()
        assert client.ping()
        before = server.db.stats.snapshot()
        server._slots.get()  # noqa: SLF001 - take the only engine slot
        result: list[bool] = []
        thread = threading.Thread(target=lambda: result.append(client.ping()))
        thread.start()
        assert queued.wait(5.0)
        server._slots.put(None)  # noqa: SLF001 - the worker may now run it
        thread.join(5.0)
        assert result == [True]
        diff = server.db.stats.diff(before)
        assert diff.get("server.queued_jobs") == 1
        assert not diff.get("server.inline_requests")
        client.close()


class TestStress:
    def test_sessions_racing_for_two_slots_lose_no_request_or_slot(self):
        """Six strict sessions against two engine slots, under a short
        switch interval: every insert lands, every fetch reads it, and
        both slot tokens are back when the sessions finish."""
        db = build_db(group_commit=True)
        db.create_table("t")
        db.create_index("t", "by_id", column="id", unique=True)
        server = DatabaseServer(db, ServerConfig(workers=2)).start(listen=False)
        clients = [server.connect_loopback() for _ in range(6)]
        wrong: list[tuple[int, object]] = []

        def work(base: int, client) -> None:
            for key in range(base, base + 40):
                client.insert("t", {"id": key})
                row = client.fetch("t", "by_id", key)
                if row is None or row["id"] != key:
                    wrong.append((key, row))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=work, args=(1000 * i, client))
                for i, client in enumerate(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(old)
        for client in clients:
            client.close()
        assert wrong == []
        assert server.executing_count == 0
        assert server._slots.qsize() == 2  # noqa: SLF001 - every token returned
        assert db.stats.get("server.requests") == 6 * 80 + 6  # and the closes
        server.shutdown()
        db.close()
