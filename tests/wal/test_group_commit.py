"""Coalesced log forces: one write per queue, acks after the write, crashes.

Every force goes through one routine.  A caller whose target a finished
write covers returns at once; any other queues on the log device, and
holding it either finds its target covered by the write it queued
behind or writes everything queued so far.  These tests exercise that
routine through LogManager and through the Database facade: callers
queued behind one write share the next, no force returns before the
write covering it has ended, an acknowledged commit is always durable,
and a force a crash overtakes is decided by the prefix that crash kept:
durable if it holds the force's target, otherwise lost with
CommitNotDurableError (LogHaltedError for a plain force).

The window is reached deterministically: a commit force pauses at the
``log.group_commit.before_flush`` failpoint holding the device with
nothing written, and ``group_commit_parked`` says when the callers
queued behind it have raised their targets.  A halt releases every
queued force no write in progress covers, and a crash decides the rest,
so a crash never waits for the paused writer.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.common.errors import CommitNotDurableError, LogHaltedError
from repro.common.failpoints import FailpointRegistry
from repro.common.stats import StatsRegistry
from repro.wal import log as log_module
from repro.wal.log import LogManager
from repro.wal.records import LogRecord, RecordKind

from tests.conftest import build_db

FLUSH_WINDOW = "log.group_commit.before_flush"


def _append(log: LogManager, txn_id: int = 1) -> int:
    return log.append(LogRecord(kind=RecordKind.COMMIT, txn_id=txn_id))


def _wait_parked(log: LogManager, count: int) -> None:
    """Return once ``count`` callers are inside a force: each has
    raised its target and queued (or holds the device)."""
    deadline = time.monotonic() + 5.0
    while log.group_commit_parked < count:
        assert time.monotonic() < deadline, f"{log.group_commit_parked} parked"
        time.sleep(0.001)


def _park_writer(log: LogManager, failpoints: FailpointRegistry) -> threading.Thread:
    """Pause a commit force on a sentinel record at the failpoint,
    holding the device with nothing written, so forces that arrive next
    queue behind it.  Returns the sentinel's thread (it finishes once
    the pause is released)."""
    failpoints.arm_pause(FLUSH_WINDOW)
    (sentinel,), _ = _outcomes(log, [_append(log, txn_id=999)])
    failpoints.wait_until_paused(FLUSH_WINDOW)
    return sentinel


def _outcomes(log: LogManager, lsns: list[int], force=None) -> tuple[list, list]:
    """Start one thread per LSN forcing it; returns the threads and the
    list each appends "durable" or the error class name to."""
    force = force or log.force_for_commit
    outcomes: list[str] = []
    lock = threading.Lock()

    def run(lsn: int) -> None:
        try:
            force(lsn)
        except (CommitNotDurableError, LogHaltedError) as exc:
            with lock:
                outcomes.append(type(exc).__name__)
        else:
            with lock:
                outcomes.append("durable")

    threads = [threading.Thread(target=run, args=(lsn,)) for lsn in lsns]
    for thread in threads:
        thread.start()
    return threads, outcomes


class _Device:
    """Stands in for the ``time`` module of :mod:`repro.wal.log`: says
    when a priced write starts sleeping and when it has ended."""

    def __init__(self) -> None:
        self.started = threading.Event()
        self.ended = threading.Event()

    def sleep(self, seconds: float) -> None:
        self.started.set()
        time.sleep(seconds)
        self.ended.set()

    @staticmethod
    def monotonic() -> float:
        return time.monotonic()


class _CrashAtFirstRelease:
    """Stands in for the log device's lock: the first release, at the
    end of the first write, lands a crash before a caller queued behind
    that write can look at the durable mark."""

    def __init__(self, log: LogManager) -> None:
        self._lock = threading.Lock()
        self._log = log
        self._crashed = False

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        return self._lock.acquire(blocking, timeout)

    def release(self) -> None:
        if not self._crashed:
            self._crashed = True
            self._log.halt()
            self._log.crash()
        self._lock.release()


class TestCoalescing:
    def test_unpriced_lone_commit_forces_on_the_calling_thread(self):
        """With nobody ahead there is nothing to wait for: the committer
        writes at once, on its own thread, and no thread exists only to
        flush."""
        threads_before = set(threading.enumerate())
        failpoints = FailpointRegistry()
        stats = StatsRegistry()
        log = LogManager(stats, failpoints)
        flushed_on: list[threading.Thread] = []
        failpoints.arm_callback(
            FLUSH_WINDOW, lambda: flushed_on.append(threading.current_thread())
        )
        lsn = _append(log)
        log.force_for_commit(lsn)
        assert flushed_on == [threading.current_thread()]
        assert log.flushed_lsn >= lsn
        assert stats.get("log.sync_forces") == 1
        assert stats.get("log.group_commit_batches") == 1
        assert log.group_commit_parked == 0
        assert set(threading.enumerate()) == threads_before

    def test_lone_committer_leads_without_a_waiter(self):
        """A lone committer is its own batch and writes exactly its own
        target: a record appended after its commit stays unforced, so
        single-threaded force counts are one per commit."""
        stats = StatsRegistry()
        log = LogManager(stats)
        for txn_id in (1, 2):
            lsn = _append(log, txn_id)
            _append(log, txn_id + 10)  # after the commit: not its target
            log.force_for_commit(lsn)
            assert log.flushed_lsn == log.force_target(lsn)
            assert log.unforced_bytes > 0
        assert stats.get("log.sync_forces") == 2
        assert stats.get("log.group_commit_requests") == 2
        assert stats.get("log.group_commit_batches") == 2
        assert stats.get("log.group_commit_flushes_saved") == 0
        assert log.group_commit_parked == 0

    def test_batch_costs_one_sync_force(self):
        """k committers queue behind a write paused before it starts;
        releasing it costs exactly one more sync force, which covers
        them all, and counts k flushes saved."""
        failpoints = FailpointRegistry()
        stats = StatsRegistry()
        log = LogManager(stats, failpoints)
        sentinel = _park_writer(log, failpoints)
        lsns = [_append(log, txn_id=i + 1) for i in range(8)]
        threads, outcomes = _outcomes(log, lsns)
        _wait_parked(log, 9)
        forces_before = stats.get("log.sync_forces")
        failpoints.release(FLUSH_WINDOW)
        for thread in threads + [sentinel]:
            thread.join(5.0)
        assert outcomes == ["durable"] * 8
        assert log.flushed_lsn >= max(lsns)
        assert stats.get("log.sync_forces") - forces_before == 1
        assert stats.get("log.group_commit_flushes_saved") == 8
        assert log.group_commit_parked == 0

    def test_flushes_saved_counter(self):
        """Concurrent committers on a database show flushes saved in
        the stats (the e15/acceptance assertion in miniature).  The
        flush is priced: commits queue only behind a write in progress."""
        db = build_db(log_flush_latency_seconds=0.0002)
        db.create_table("t")
        db.create_index("t", "by_id", column="id", unique=True)

        def writer(base: int) -> None:
            for i in range(10):
                with db.transaction() as txn:
                    db.insert(txn, "t", {"id": base + i})

        threads = [threading.Thread(target=writer, args=(1000 * w,)) for w in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        snap = db.stats.snapshot()
        commits = snap.get("txn.committed", 0)
        forces = snap.get("log.sync_forces", 0)
        assert commits >= 80
        assert snap.get("log.group_commit_requests", 0) >= 80
        assert snap.get("log.group_commit_batches", 0) >= 1
        assert snap.get("log.group_commit_flushes_saved", 0) > 0
        # The point of coalescing: far fewer sync I/Os than commits.
        assert forces < commits
        db.close()

    def test_priced_committers_under_a_short_switch_interval(self):
        """More committers than cores race a priced device with a short
        switch interval: every commit is durable when acknowledged, the
        counts add up, and no caller is left counted inside a force."""
        stats = StatsRegistry()
        log = LogManager(stats)
        log.flush_latency_seconds = 0.0001
        late: list[int] = []

        def commit() -> None:
            for _ in range(30):
                lsn = _append(log)
                log.force_for_commit(lsn)
                if log.flushed_lsn < log.force_target(lsn):
                    late.append(lsn)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=commit) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(old)
        assert late == []
        assert log.group_commit_parked == 0
        requests = stats.get("log.group_commit_requests")
        writes = stats.get("log.sync_forces")
        assert requests == 240
        assert writes == stats.get("log.group_commit_batches")
        assert writes + stats.get("log.group_commit_flushes_saved") <= requests
        assert writes < requests

    def test_already_durable_commit_returns_without_parking(self):
        """A commit a finished write already covers returns at once,
        without queueing for the log device: not even behind a writer
        paused on it for good."""
        failpoints = FailpointRegistry()
        stats = StatsRegistry()
        log = LogManager(stats, failpoints)
        lsn = _append(log)
        log.force()  # covers the record before the commit asks
        sentinel = _park_writer(log, failpoints)
        log.force_for_commit(lsn)
        log.force(lsn)
        assert log.group_commit_parked == 1  # the paused writer alone
        assert stats.get("log.sync_forces") == 1
        assert stats.get("log.group_commit_requests") == 1
        failpoints.release(FLUSH_WINDOW)
        sentinel.join(5.0)


class TestAckAfterTheWrite:
    @pytest.mark.parametrize("kind", ["commit", "page flush"])
    def test_a_force_covered_by_a_write_in_progress_waits_for_it(
        self, monkeypatch, kind
    ):
        """B is appended before A; a thread forces A under a 0.2 s write
        price.  B's target lies under that write, but B must not return
        before the write has ended — whether B is a commit or a WAL-rule
        page flush."""
        device = _Device()
        monkeypatch.setattr(log_module, "time", device)
        log = LogManager()
        log.flush_latency_seconds = 0.2
        b = _append(log, txn_id=1)
        a = _append(log, txn_id=2)
        writer = threading.Thread(target=log.force_for_commit, args=(a,))
        writer.start()
        assert device.started.wait(5.0)
        if kind == "commit":
            log.force_for_commit(b)
        else:
            log.force(b)
        assert device.ended.is_set(), "acknowledged before the write ended"
        assert log.flushed_lsn >= log.force_target(b)
        writer.join(5.0)
        assert not writer.is_alive()


class TestCrashResolution:
    def test_crash_between_enqueue_and_flush_raises(self):
        """The acceptance-criteria window: committers queued behind a
        write that has not started when the crash lands were never
        acknowledged and must learn it — every one of them."""
        failpoints = FailpointRegistry()
        stats = StatsRegistry()
        log = LogManager(stats, failpoints)
        sentinel = _park_writer(log, failpoints)
        lsns = [_append(log, txn_id=i + 1) for i in range(3)]
        threads, outcomes = _outcomes(log, lsns)
        _wait_parked(log, 4)
        durable_before = log.flushed_lsn
        log.halt()
        log.crash()
        # The paused writer resumes as crashed, as in Database.crash.
        failpoints.disarm_all(crash_paused=True)
        for thread in threads + [sentinel]:
            thread.join(5.0)
        assert outcomes == ["CommitNotDurableError"] * 3
        assert log.flushed_lsn == durable_before
        assert stats.get("log.group_commit_lost_in_crash") == 4
        assert log.group_commit_parked == 0

    def test_a_page_flush_queued_in_the_window_is_lost_too(self):
        """A halt releases a WAL-rule force queued behind the paused
        writer at once: a page flush holds the pool mutex a crash must
        take, so it may not wait for a writer that never resumes."""
        failpoints = FailpointRegistry()
        log = LogManager(failpoints=failpoints)
        sentinel = _park_writer(log, failpoints)
        (flusher,), outcomes = _outcomes(log, [_append(log)], force=log.force)
        _wait_parked(log, 2)
        log.halt()
        flusher.join(5.0)
        assert not flusher.is_alive()
        assert outcomes == ["LogHaltedError"]
        log.crash()
        failpoints.disarm_all(crash_paused=True)
        sentinel.join(5.0)
        assert log.group_commit_parked == 0

    def test_crash_under_a_paused_lone_leader_loses_its_commit(self):
        """A lone committer learns a crash from the prefix that crash
        kept, not from the log's length: after the crash the resumed log grows
        past its commit record's offset, so a write now would "cover"
        its target with the next incarnation's bytes — it must still
        fail."""
        failpoints = FailpointRegistry()
        log = LogManager(failpoints=failpoints)
        failpoints.arm_pause(FLUSH_WINDOW)
        lsn = _append(log)
        outcome: list[str] = []

        def committer() -> None:
            try:
                log.force_for_commit(lsn)
            except CommitNotDurableError:
                outcome.append("lost")
            else:
                outcome.append("durable")

        thread = threading.Thread(target=committer)
        thread.start()
        failpoints.wait_until_paused(FLUSH_WINDOW)
        assert log.group_commit_parked == 1
        log.halt()
        log.crash()
        log.resume()
        for _ in range(3):
            _append(log, txn_id=2)
        failpoints.release(FLUSH_WINDOW)
        thread.join(5.0)
        assert not thread.is_alive()
        assert outcome == ["lost"]
        assert log.group_commit_parked == 0

    @pytest.mark.parametrize("kind", ["commit", "page flush"])
    def test_a_crash_after_the_covering_write_keeps_the_queued_force(
        self, monkeypatch, kind
    ):
        """B queues behind a write of A that covers it; the write ends,
        and a crash lands before B has looked.  The crash kept A's
        write, so B is durable: a commit reported lost here would be
        aborted by its caller while recovery finds it committed."""
        device = _Device()
        monkeypatch.setattr(log_module, "time", device)
        stats = StatsRegistry()
        log = LogManager(stats)
        log.flush_latency_seconds = 0.2
        b = _append(log, txn_id=1)
        a = _append(log, txn_id=2)
        log._io_lock = _CrashAtFirstRelease(log)
        (writer,), writer_outcome = _outcomes(log, [a], force=log.force)
        assert device.started.wait(5.0)
        force = log.force_for_commit if kind == "commit" else log.force
        (queued,), outcome = _outcomes(log, [b], force=force)
        _wait_parked(log, 2)
        queued.join(5.0)
        writer.join(5.0)
        assert outcome == writer_outcome == ["durable"]
        assert stats.get("log.crashes") == 1
        assert log.flushed_lsn >= log.force_target(a)
        assert stats.get("log.group_commit_lost_in_crash") == 0

    def test_a_halt_does_not_release_a_force_a_write_in_progress_covers(
        self, monkeypatch
    ):
        """A halt releases the queue only for forces no write in
        progress covers: B, queued behind a priced write of A, waits for
        that write to end and is durable, as the crash that follows
        keeps it."""
        device = _Device()
        monkeypatch.setattr(log_module, "time", device)
        log = LogManager()
        log.flush_latency_seconds = 0.2
        b = _append(log, txn_id=1)
        a = _append(log, txn_id=2)
        (writer,), writer_outcome = _outcomes(log, [a])
        assert device.started.wait(5.0)
        (queued,), outcome = _outcomes(log, [b], force=log.force)
        _wait_parked(log, 2)
        log.halt()
        queued.join(5.0)
        assert device.ended.is_set(), "released before the covering write ended"
        assert outcome == ["durable"]
        writer.join(5.0)
        assert writer_outcome == ["durable"]
        log.crash()
        assert log.flushed_lsn >= log.force_target(a)

    def test_a_commit_whose_frame_the_torn_tail_kept_is_durable(self):
        """The crash keeps a torn tail that holds the paused commit's
        whole frame: recovery will find the commit, so its force must
        not report it lost."""
        failpoints = FailpointRegistry()
        log = LogManager(failpoints=failpoints)
        failpoints.arm_pause(FLUSH_WINDOW)
        (committer,), outcome = _outcomes(log, [_append(log)])
        failpoints.wait_until_paused(FLUSH_WINDOW)
        log.halt()
        log.crash(keep_partial_tail=log.unforced_bytes)
        failpoints.disarm_all(crash_paused=True)
        committer.join(5.0)
        assert outcome == ["durable"]

    def test_crash_during_the_write_loses_it(self, monkeypatch):
        """A crash that lands while the write is being paid for cuts
        what was being written: the commit is lost and the durable mark
        does not move past the crash."""
        device = _Device()
        monkeypatch.setattr(log_module, "time", device)
        log = LogManager()
        log.flush_latency_seconds = 0.2
        threads, outcomes = _outcomes(log, [_append(log)])
        assert device.started.wait(5.0)
        log.halt()
        log.crash()
        threads[0].join(5.0)
        assert outcomes == ["CommitNotDurableError"]
        assert log.flushed_lsn == 0
        assert log.end_lsn == 1

    def test_crash_after_flush_is_durable(self):
        """A committer whose write ended before the crash was
        acknowledged; the crash must not retract that."""
        log = LogManager()
        lsn = _append(log)
        log.force_for_commit(lsn)  # returns only after the write
        log.halt()
        log.crash()
        # The record survived the crash.
        assert log.flushed_lsn >= lsn

    def test_commit_after_halt_fails_fast(self):
        log = LogManager()
        lsn = _append(log)
        log.halt()
        with pytest.raises(CommitNotDurableError):
            log.force_for_commit(lsn)
        with pytest.raises(LogHaltedError):
            log.force(lsn)
        with pytest.raises(LogHaltedError):
            _append(log)


class TestDatabaseIntegration:
    def test_crash_on_a_flusher_paused_in_the_window_forces_nothing(self):
        """The committer stops at its failpoint before its write; the
        crash resumes it as crashed, so its commit is lost, its bytes
        never reach stable storage, and restart rolls it back while the
        commit acknowledged before it survives."""
        db = build_db()
        db.create_table("t")
        db.create_index("t", "by_id", column="id", unique=True)
        with db.transaction() as txn:
            db.insert(txn, "t", {"id": 0})
        db.failpoints.arm_pause(FLUSH_WINDOW)
        result: list[str] = []

        def committer() -> None:
            txn = db.begin()
            db.insert(txn, "t", {"id": 1})
            try:
                db.commit(txn)
            except CommitNotDurableError:
                result.append("lost")
            else:
                result.append("durable")

        thread = threading.Thread(target=committer)
        thread.start()
        db.failpoints.wait_until_paused(FLUSH_WINDOW)
        assert db.log.group_commit_parked == 1
        durable_before = db.log.flushed_lsn
        db.crash()
        thread.join(5.0)
        assert not thread.is_alive()
        assert result == ["lost"]
        assert db.log.flushed_lsn == durable_before
        db.restart()
        # The log serves new commits after the paused force's crash.
        with db.transaction() as txn:
            assert db.fetch(txn, "t", "by_id", 0) is not None  # acked → durable
            assert db.fetch(txn, "t", "by_id", 1) is None  # lost → gone
            db.insert(txn, "t", {"id": 2})
        db.close()

    def test_acknowledged_commits_survive_crash(self):
        db = build_db()
        db.create_table("t")
        db.create_index("t", "by_id", column="id", unique=True)
        for key in range(20):
            with db.transaction() as txn:
                db.insert(txn, "t", {"id": key})
        db.crash()
        db.restart()
        txn = db.begin()
        for key in range(20):
            assert db.fetch(txn, "t", "by_id", key) is not None
        db.commit(txn)
        db.close()
