"""The multi-threaded embedded database server.

Architecture::

    accept thread ──► one connection thread per session (frame I/O)
                                   │  submit(request)
                 lone request,     │          batch, or no slot free
                 a slot free       ▼
          ┌──────────────── N engine slots ────────────────┐
          │                                                │
     runs Session.execute                  bounded queue (admission control)
     on the session thread                            │
          │                             executor pool: N workers, each
          │                             takes a slot per job and runs
          │                             Session.execute[_batch]
          ▼                                           ▼
          engine (latches/locks serialize page access; the log
          coalesces the commit forces queued behind one write)

The ``workers`` slots bound engine concurrency however a request
arrives.  A lone request that finds a slot free skips the queue and
the worker hand-off; batches and requests that find every slot busy
take the queue.  Admission control: a request that cannot enter the
bounded queue within the admission timeout is rejected with
``ServerOverloadedError`` — backpressure instead of unbounded memory.
A request that runs past the per-request timeout gets its connection
dropped (the reply stream would be out of step otherwise): a queued
request's session thread notices itself, and one server-wide deadline
watcher notices for inline ones.  Whoever finishes the op then cleans
the session up.

Graceful shutdown drains in-flight requests, closes every session
(rolling back open transactions), stops the workers, and takes a final
checkpoint so restart starts from a quiesced log.

The listener, the accept thread, the session threads and the stop step
are :class:`~repro.server.frontend.FrontEnd`'s, shared with the cluster
router; the queue, the slots, the drain and the checkpoint are this
module's alone.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Callable

from repro.common.errors import (
    ConfigError,
    RequestTimeoutError,
    ServerOverloadedError,
    ServerShutdownError,
)
from repro.db import Database
from repro.server.frontend import FrontEnd
from repro.server.protocol import error_response
from repro.server.session import Session


@dataclass(frozen=True)
class ServerConfig:
    """Tunables of one server instance."""

    host: str = "127.0.0.1"
    port: int = 0
    """0 = let the OS pick a free port (tests)."""
    workers: int = 4
    """Engine slots (and executor pool size) — the bound on concurrent
    engine work, whether a request runs inline or on the pool."""
    queue_depth: int = 64
    """Bounded request queue; beyond it, admission control rejects."""
    admission_timeout_seconds: float = 0.25
    """How long a request may wait for a queue slot before rejection."""
    request_timeout_seconds: float = 30.0
    """How long a request may execute before its session is dropped."""
    drain_timeout_seconds: float = 10.0
    """How long graceful shutdown waits for in-flight work."""

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        if self.queue_depth < 1:
            raise ConfigError("queue_depth must be at least 1")
        if self.request_timeout_seconds <= 0 or self.drain_timeout_seconds <= 0:
            raise ConfigError("timeouts must be positive")
        if self.admission_timeout_seconds < 0:
            raise ConfigError("admission_timeout_seconds must be >= 0")


DEFAULT_SERVER_CONFIG = ServerConfig()

_STOP = object()  # worker sentinel


class _Job:
    """One request — or one batch of pipelined requests — in flight,
    inline on its session thread or through the executor pool.

    ``done`` and ``timed_out`` change under ``lock``, so exactly one of
    "finished" and "timed out" wins.  Only a queued job's requester
    blocks, so only a queued job gets an ``event`` to wake it."""

    __slots__ = (
        "session", "request", "batch", "done", "event", "response", "timed_out", "lock"
    )

    def __init__(
        self, session: Session, request, batch: bool = False
    ) -> None:
        self.session = session
        self.request = request
        self.batch = batch
        self.done = False
        self.event: threading.Event | None = None
        #: A response dict, or a list of them for a batch job.
        self.response = None
        self.timed_out = False
        self.lock = threading.Lock()

    def finish(self, response) -> None:
        """Record the response and wake a queued requester; callers
        hold ``lock``."""
        self.response = response
        self.done = True
        if self.event is not None:
            self.event.set()

    def settle(self, exc: Exception) -> None:
        """Resolve without execution (shutdown); callers hold ``lock``."""
        if self.batch:
            self.finish(
                [
                    {**error_response(exc), "corr_id": r.get("corr_id", 0)}
                    for r in self.request
                ]
            )
        else:
            self.finish(error_response(exc))


class _DeadlineWatch:
    """One server-wide thread that times out inline requests.

    Every request gets the same timeout, so deadlines expire in the
    order requests register: the watcher sleeps until the oldest, and
    with nothing registered sleeps one whole timeout — a request that
    registers meanwhile expires no earlier than that wake-up.  So
    registering never has to wake the watcher.
    """

    def __init__(self, timeout: float, expire: Callable[[_Job], object]) -> None:
        self._timeout = timeout
        self._expire = expire
        self._lock = threading.Lock()
        #: Registered jobs → deadline, oldest first (insertion order).
        self._jobs: dict[_Job, float] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="db-deadlines", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def add(self, job: _Job) -> None:
        with self._lock:
            self._jobs[job] = time.monotonic() + self._timeout

    def discard(self, job: _Job) -> None:
        with self._lock:
            self._jobs.pop(job, None)

    def _run(self) -> None:
        while not self._stop.is_set():
            with self._lock:
                now = time.monotonic()
                job, deadline = next(
                    iter(self._jobs.items()), (None, now + self._timeout)
                )
                if job is not None and deadline <= now:
                    del self._jobs[job]
            if job is None or deadline > now:
                self._stop.wait(deadline - now)
                continue
            self._expire(job)


class DatabaseServer(FrontEnd):
    """Serve one :class:`~repro.db.Database` to many sessions."""

    session_class = Session

    def __init__(
        self, db: Database, config: ServerConfig = DEFAULT_SERVER_CONFIG
    ) -> None:
        super().__init__(config.host, config.port)
        self.db = db
        self.config = config
        self._queue: queue.Queue = queue.Queue(maxsize=config.queue_depth)
        self._workers: list[threading.Thread] = []
        self._executing = 0
        self._executing_lock = threading.Lock()
        #: One token per unit of engine concurrency (``workers``): a
        #: lone request takes one on its session thread, a pool worker
        #: one per job.  A ``SimpleQueue`` rather than a ``Semaphore``:
        #: its get and put are C calls.
        self._slots: queue.SimpleQueue = queue.SimpleQueue()
        for _ in range(config.workers):
            self._slots.put(None)
        self._deadlines = _DeadlineWatch(
            config.request_timeout_seconds, self._time_out
        )

    # -- lifecycle ---------------------------------------------------------

    def start(self, listen: bool = True) -> "DatabaseServer":
        """Start the executor pool, the deadline watcher and (optionally)
        the TCP listener.

        ``listen=False`` runs loopback-only — the in-process tests and
        the crash torture harness don't need a real socket."""
        if not self._started:
            for i in range(self.config.workers):
                worker = threading.Thread(
                    target=self._worker_loop, name=f"db-worker-{i}", daemon=True
                )
                worker.start()
                self._workers.append(worker)
            self._deadlines.start()
        super().start(listen)
        return self

    # -- request path ------------------------------------------------------

    def submit(self, session: Session, request: dict) -> dict | None:
        """Admit, execute, and reply to one request — on the calling
        session thread when an engine slot is free, else on the pool.

        Returns the response message, or None when the request timed
        out (the session thread must stop reading; whoever finishes the
        op cleans up)."""
        return self._submit_job(_Job(session, request), 1)

    def submit_batch(
        self, session: Session, requests: list[dict]
    ) -> list[dict] | None:
        """Admit and execute a run of pipelined requests as one job.

        The whole batch pays one admission-control pass and one queue
        slot; the worker runs :meth:`Session.execute_batch`, whose
        commits share log writes with those of other workers.
        Returns the response list (request order), or None on timeout.
        """
        return self._submit_job(
            _Job(session, requests, batch=True), len(requests)
        )

    def _submit_job(self, job: _Job, count: int):
        stats = self.db.stats
        stats.incr("server.requests", count)
        if count > 1:
            stats.incr("server.batches")
            stats.max_gauge("server.batch_peak", count)
        if self._stopping:
            job.settle(ServerShutdownError("server is shutting down"))
            return job.response
        # A lone request runs right here, on its session's thread, when
        # an engine slot is free: no queue hop and no worker wake-up.
        # Batches stay on the pool (inline, they hold a slot through a
        # whole pipeline and the other session's p99 pays for it).
        if not job.batch:
            try:
                self._slots.get_nowait()
            except queue.Empty:
                pass  # every slot busy: take the queue
            else:
                try:
                    return self._run_inline(job)
                finally:
                    self._slots.put(None)
        # Created before the put: the worker may finish the job first.
        job.event = threading.Event()
        try:
            self._queue.put(job, timeout=self.config.admission_timeout_seconds)
        except queue.Full:
            stats.incr("server.rejected_overload", count)
            job.settle(
                ServerOverloadedError(
                    f"executor queue full ({self.config.queue_depth} deep) for "
                    f"{self.config.admission_timeout_seconds}s"
                )
            )
            return job.response
        stats.incr("server.queued_jobs")
        stats.max_gauge("server.queue_peak", self._queue.qsize())
        if job.event.wait(self.config.request_timeout_seconds) or not self._time_out(job):
            return job.response
        return None

    def _run_inline(self, job: _Job) -> dict | None:
        """Execute a lone request on the calling session thread (its
        slot already taken); the deadline watcher stands in for the
        timed wait a queued request's session thread does itself."""
        self.db.stats.incr("server.inline_requests")
        self._count_executing(1)
        self._deadlines.add(job)
        try:
            finished = self._execute(job)
        finally:
            self._deadlines.discard(job)
            self._count_executing(-1)
        return job.response if finished else None

    def _time_out(self, job: _Job) -> bool:
        """Give up on ``job``: abandon its session and send the timeout
        notice (the reply stream would be out of step otherwise).
        False if the job finished first."""
        with job.lock:
            if job.done:  # finished just as we gave up
                return False
            job.timed_out = True
            job.session.abandoned = True
        self.db.stats.incr("server.request_timeouts")
        try:
            job.session.conn.write_message(
                error_response(
                    RequestTimeoutError(
                        f"request ran past {self.config.request_timeout_seconds}s; "
                        "session closed"
                    )
                )
            )
        except OSError:
            pass
        return True

    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is _STOP:
                return
            # Counted while it waits for a slot too, so a drain never
            # finds the job neither queued nor executing.
            self._count_executing(1)
            try:
                self._slots.get()
                try:
                    self._execute(job)
                finally:
                    self._slots.put(None)
            finally:
                self._count_executing(-1)
            if not self._queue.empty():
                # Let go of the interpreter between jobs even when the
                # next one is already queued, as when waiting for one.
                # A backlogged pool that ran job after job was preempted
                # inside the lock manager's mutex instead, and at 16
                # pipelined sessions (E20) fell into a convoy on it.
                time.sleep(0)

    def _execute(self, job: _Job) -> bool:
        """Run ``job`` on this thread and settle it.  False when its
        requester timed out meanwhile: the op's session dies here,
        rolling back its transaction."""
        if job.batch:
            response = job.session.execute_batch(job.request)
        else:
            response = job.session.execute(job.request)
        with job.lock:
            job.finish(response)
            abandoned = job.timed_out
        if abandoned:
            job.session.cleanup()
        return not abandoned

    def _count_executing(self, delta: int) -> None:
        with self._executing_lock:
            self._executing += delta

    @property
    def executing_count(self) -> int:
        """Jobs currently executing — inline on a session thread or on
        the pool, or taken by a worker that waits for a slot.  Graceful
        shutdown drains until this and the queue are empty."""
        with self._executing_lock:
            return self._executing

    # -- shutdown ----------------------------------------------------------

    def shutdown(self, drain: bool = True) -> bool:
        """Stop the server.

        ``drain=True`` (graceful): stop admitting, let queued and
        running requests finish (up to the drain timeout), close every
        session (open transactions roll back), stop the workers, and
        take a final checkpoint.  ``drain=False`` (abort): drop
        everything immediately and leave the database alone — the crash
        harness uses this after ``db.crash()``.

        Returns True if the drain completed before the timeout."""
        if not self._started or self._stopping:
            return True
        drained = self._stop(self._drain if drain else None)
        # Settle whatever is still queued (abort path / failed drain) so
        # session threads parked on job.event wake up and the bounded
        # queue has room for the worker sentinels.
        while True:
            try:
                job = self._queue.get_nowait()
            except queue.Empty:
                break
            with job.lock:
                job.settle(
                    ServerShutdownError("server shut down before execution")
                )
        for _ in self._workers:
            self._queue.put(_STOP)
        for worker in self._workers:
            worker.join(timeout=5.0)
        self._deadlines.stop()
        if drain and not self.db.closed and not self.db.crashed:
            self.db.checkpoint()
        self.db.stats.incr("server.shutdowns")
        if drained and drain:
            self.db.stats.incr("server.drained_clean")
        return drained

    def _drain(self) -> bool:
        """Wait, up to the drain timeout, until nothing is queued or
        executing; True if that happened in time."""
        deadline = time.monotonic() + self.config.drain_timeout_seconds
        while self._queue.qsize() > 0 or self.executing_count > 0:
            if time.monotonic() > deadline:
                return False
            time.sleep(0.002)
        return True

    def abort(self) -> None:
        """Hard stop that never touches the database (post-crash)."""
        self.shutdown(drain=False)
