"""The part of a wire-protocol front end that every front end shares.

A :class:`FrontEnd` owns the listener, the accept thread and the
session threads: it binds and listens, hands out clients over TCP or a
loopback socketpair, spawns one thread per session and lists it under
``_sessions_lock``, and stops all of it in one step.  What a session
*does* is its class's business (``session_class``):
:class:`~repro.server.server.DatabaseServer` serves one database with
admission control and engine slots, and
:class:`~repro.cluster.router.ShardRouter` routes each op to a cluster
inline.
"""

from __future__ import annotations

import itertools
import socket
import threading
from typing import Callable, ClassVar

from repro.common.errors import ServerShutdownError
from repro.server.client import DatabaseClient
from repro.server.protocol import FrameConn, SocketTransport, loopback_pair
from repro.server.session import BaseSession


class FrontEnd:
    """Listener, accept loop, session threads and the stop step."""

    #: The class of one connected client's server-side state.
    session_class: ClassVar[type[BaseSession]]
    #: Prefix of the thread names (``<prefix>-accept``,
    #: ``<prefix>-session-<id>``) and the noun error messages use.
    thread_prefix: ClassVar[str] = "db"
    noun: ClassVar[str] = "server"

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._sessions: set[BaseSession] = set()
        self._sessions_lock = threading.Lock()
        self._session_ids = itertools.count(1)
        self._threads: list[threading.Thread] = []
        self._listener: socket.socket | None = None
        self._address: tuple[str, int] | None = None
        self._accept_thread: threading.Thread | None = None
        self._stopping = False
        self._started = False

    # -- lifecycle ---------------------------------------------------------

    def start(self, listen: bool = True) -> "FrontEnd":
        """Start serving; ``listen=False`` serves loopback clients only
        (in-process tests and the crash torture need no real socket)."""
        if self._started:
            return self
        self._started = True
        if listen:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self.port))
            listener.listen(128)
            self._listener = listener
            self._address = listener.getsockname()
            self._accept_thread = threading.Thread(
                target=self._accept_loop,
                name=f"{self.thread_prefix}-accept",
                daemon=True,
            )
            self._accept_thread.start()
        return self

    @property
    def address(self) -> tuple[str, int]:
        """(host, port) the TCP listener is bound to."""
        if self._address is None:
            raise ServerShutdownError(f"{self.noun} is not listening")
        return self._address

    def connect(self, timeout: float | None = 30.0) -> DatabaseClient:
        """New client over real TCP."""
        host, port = self.address
        return DatabaseClient.connect(host, port, timeout=timeout)

    def connect_loopback(self) -> DatabaseClient:
        """New client over an in-process socketpair (no TCP stack)."""
        if self._stopping or not self._started:
            raise ServerShutdownError(f"{self.noun} is not accepting sessions")
        server_end, client_end = loopback_pair()
        self._spawn_session(server_end)
        return DatabaseClient(FrameConn(client_end))

    def _spawn_session(self, transport: SocketTransport) -> BaseSession:
        session = self.session_class(
            self, FrameConn(transport), next(self._session_ids)
        )
        thread = threading.Thread(
            target=session.serve,
            name=f"{self.thread_prefix}-session-{session.session_id}",
            daemon=True,
        )
        # Under the lock the stop step takes its snapshot with, and
        # started before it is listed: the stop joins every thread it
        # finds.
        with self._sessions_lock:
            self._sessions.add(session)
            thread.start()
            self._threads = [t for t in self._threads if t.is_alive()]
            self._threads.append(thread)
        return session

    def forget_session(self, session: BaseSession) -> None:
        with self._sessions_lock:
            self._sessions.discard(session)

    @property
    def session_count(self) -> int:
        with self._sessions_lock:
            return len(self._sessions)

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopping:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return  # listener closed by the stop step
            if self._stopping:
                sock.close()
                return
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._spawn_session(SocketTransport(sock))

    def _stop(self, quiesce: Callable[[], bool] | None = None) -> bool:
        """Stop accepting, run ``quiesce`` (if any), then close every
        session and join its thread; returns what ``quiesce`` returned
        (True without one).  A session's cleanup rolls back its open
        transaction."""
        self._stopping = True
        if self._listener is not None:
            # close() alone does not wake a thread blocked in accept();
            # shutdown() does, so the accept thread exits before the
            # session threads are joined below.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        quiesced = quiesce() if quiesce is not None else True
        # Unblock every session reader.
        with self._sessions_lock:
            sessions = list(self._sessions)
            threads = list(self._threads)
        for session in sessions:
            session.closing = True
            session.conn.transport.close()
        for thread in threads:
            thread.join(timeout=5.0)
        for session in sessions:
            if not session.abandoned:
                session.cleanup()
        return quiesced
