"""Group commit: coalesced flushes, durability, crash resolution.

The first committer that finds no flush in progress leads: it takes
every parked committer as one batch and covers it with one synchronous
force, on its own thread.  These tests exercise the mechanism directly
through LogManager and through the Database facade: coalescing actually
saves flushes (under a priced flush), an unpriced lone commit forces at
once, an acknowledged commit is always durable, and a crash landing
between batch take and flush settles every parked committer — the
leader included — with CommitNotDurableError.

The take→flush window is reached deterministically: the leader pauses
at the ``log.group_commit.before_flush`` failpoint with a batch taken
and nothing forced, and :class:`_SpyWaiter` says when a committer has
parked behind it.
"""

from __future__ import annotations

import threading

import pytest

from repro.common.errors import CommitNotDurableError, LogHaltedError
from repro.common.failpoints import FailpointRegistry
from repro.common.stats import StatsRegistry
from repro.wal import log as log_module
from repro.wal.log import LogManager
from repro.wal.records import LogRecord, RecordKind

from tests.conftest import SpyCondition, build_db

FLUSH_WINDOW = "log.group_commit.before_flush"


def _append(log: LogManager, txn_id: int = 1) -> int:
    return log.append(LogRecord(kind=RecordKind.COMMIT, txn_id=txn_id))


def _park_leader(log: LogManager, failpoints: FailpointRegistry) -> threading.Thread:
    """Pause a leader on a sentinel commit, so committers that arrive
    next queue behind it as waiters not yet taken.  Returns the
    sentinel's thread (it finishes once the pause is released)."""
    failpoints.arm_pause(FLUSH_WINDOW)
    sentinel = threading.Thread(
        target=log.force_for_commit, args=(_append(log, txn_id=999),)
    )
    sentinel.start()
    failpoints.wait_until_paused(FLUSH_WINDOW)
    return sentinel


class _SpyWaiter(log_module._CommitWaiter):
    """A commit waiter that reports when its committer parks: by the
    time ``parked`` is released the waiter is already enqueued."""

    __slots__ = ()
    parked = threading.Semaphore(0)

    def __init__(self, target: int) -> None:
        super().__init__(target)
        wait = self.event.wait

        def spy_wait(timeout=None):
            _SpyWaiter.parked.release()
            return wait(timeout)

        self.event.wait = spy_wait


@pytest.fixture
def spy_waiters(monkeypatch):
    """Install :class:`_SpyWaiter`; returns its ``parked`` semaphore."""
    _SpyWaiter.parked = threading.Semaphore(0)
    monkeypatch.setattr(log_module, "_CommitWaiter", _SpyWaiter)
    return _SpyWaiter.parked


class TestLifecycle:
    def test_disabled_by_default(self):
        log = LogManager()
        assert not log.group_commit_enabled
        lsn = _append(log)
        log.force_for_commit(lsn)  # plain force path
        assert log.flushed_lsn >= lsn

    def test_start_stop_idempotent(self):
        log = LogManager()
        log.start_group_commit()
        log.start_group_commit()
        assert log.group_commit_enabled
        log.stop_group_commit()
        log.stop_group_commit()
        assert not log.group_commit_enabled

    def test_stop_flushes_leftovers(self, spy_waiters):
        failpoints = FailpointRegistry()
        log = LogManager(failpoints=failpoints)
        # The only wait on the group-commit condition here is the
        # stopper's (the flush is unpriced, so no leader waits out a
        # window): its ``parked`` says the stop has begun.
        log._gc_cond = stopping = SpyCondition(threading.RLock())  # noqa: SLF001 - test instruments the wait path
        log.start_group_commit(max_wait_seconds=0.001)
        sentinel = _park_leader(log, failpoints)
        lsn = _append(log)
        done = threading.Event()

        def committer():
            log.force_for_commit(lsn)
            done.set()

        thread = threading.Thread(target=committer)
        thread.start()
        # The sentinel's batch is in flight; the committer is a waiter.
        assert spy_waiters.acquire(timeout=5.0)
        assert log.group_commit_parked == 2
        # Stop with the waiter still queued.  stop_group_commit waits
        # for the paused leader, so it runs on a helper thread and the
        # pause is released once the stop has begun.
        stopper = threading.Thread(target=log.stop_group_commit)
        stopper.start()
        assert stopping.parked.wait(5.0)
        assert not log.group_commit_enabled
        failpoints.release(FLUSH_WINDOW)
        stopper.join(5.0)
        # Leftovers must still be flushed and acked.
        assert done.wait(5.0)
        thread.join(5.0)
        sentinel.join(5.0)
        assert log.flushed_lsn >= lsn


class TestCoalescing:
    def test_unpriced_lone_commit_forces_on_the_calling_thread(self):
        """With a free flush there is nothing to wait for: the committer
        leads, forces at once on its own thread, and no thread exists
        only to flush."""
        failpoints = FailpointRegistry()
        stats = StatsRegistry()
        log = LogManager(stats, failpoints)
        log.start_group_commit(max_wait_seconds=0.05)
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
        assert "wal-group-commit" not in {t.name for t in threading.enumerate()}
        log.stop_group_commit()

    def test_lone_committer_leads_without_a_waiter(self, monkeypatch):
        """A committer that finds no leader has nobody parked ahead of
        it: it leads with no waiter (and no event) of its own, and
        still forces exactly once through the batch routine."""
        stats = StatsRegistry()
        log = LogManager(stats)
        log.start_group_commit(max_wait_seconds=0.05)
        made: list[int] = []
        monkeypatch.setattr(log_module, "_CommitWaiter", made.append)
        for txn_id in (1, 2):
            log.force_for_commit(_append(log, txn_id))
        assert made == []
        assert stats.get("log.sync_forces") == 2
        assert stats.get("log.group_commit_batches") == 2
        assert log.group_commit_parked == 0
        log.stop_group_commit()

    def test_batch_costs_one_sync_force(self, spy_waiters):
        """N committers park behind a leader paused in its take→flush
        window; releasing it costs exactly two forces — its own batch,
        then one for all N."""
        failpoints = FailpointRegistry()
        stats = StatsRegistry()
        log = LogManager(stats, failpoints)
        log.start_group_commit(max_wait_seconds=0.05)
        sentinel = _park_leader(log, failpoints)
        lsns = [_append(log, txn_id=i + 1) for i in range(8)]
        threads = [
            threading.Thread(target=log.force_for_commit, args=(lsn,))
            for lsn in lsns
        ]
        for thread in threads:
            thread.start()
        for _ in threads:
            spy_waiters.acquire()
        assert log.group_commit_parked == 9
        forces_before = stats.get("log.sync_forces")
        failpoints.release(FLUSH_WINDOW)
        for thread in threads + [sentinel]:
            thread.join(5.0)
        assert log.flushed_lsn >= max(lsns)
        assert stats.get("log.sync_forces") - forces_before == 2
        assert stats.get("log.group_commit_flushes_saved") == 7
        assert log.group_commit_parked == 0
        log.stop_group_commit()

    def test_flushes_saved_counter(self):
        """Concurrent committers on a database show flushes saved in
        the stats (the e15/acceptance assertion in miniature).  The
        flush is priced: coalescing saves only what a flush costs."""
        db = build_db(
            group_commit=True,
            group_commit_max_wait_seconds=0.005,
            log_flush_latency_seconds=0.0002,
        )
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
        # The point of the feature: far fewer sync I/Os than commits.
        assert forces < commits
        db.close()

    def test_already_durable_commit_returns_without_parking(self):
        log = LogManager()
        log.start_group_commit()
        lsn = _append(log)
        log.force()  # covers the record before the commit asks
        log.force_for_commit(lsn)  # must not park or deadlock
        log.stop_group_commit()


class TestCrashResolution:
    def test_crash_between_enqueue_and_flush_raises(self, spy_waiters):
        """The acceptance-criteria window: committers parked when the
        crash lands were never acknowledged and must learn it."""
        failpoints = FailpointRegistry()
        log = LogManager(failpoints=failpoints)
        log.start_group_commit()
        failpoints.arm_pause(FLUSH_WINDOW)
        lsns = [_append(log, txn_id=i + 1) for i in range(3)]
        outcomes: list[str] = []
        lock = threading.Lock()

        def committer(lsn: int) -> None:
            try:
                log.force_for_commit(lsn)
            except CommitNotDurableError:
                with lock:
                    outcomes.append("lost")
            else:
                with lock:
                    outcomes.append("durable")

        threads = [threading.Thread(target=committer, args=(lsn,)) for lsn in lsns]
        for thread in threads:
            thread.start()
        failpoints.wait_until_paused(FLUSH_WINDOW)
        # The first committer leads (paused above); the other two park.
        for _ in range(2):
            assert spy_waiters.acquire(timeout=5.0)
        assert log.group_commit_parked == 3
        log.halt()
        log.crash()
        # The paused leader resumes as crashed, as in Database.crash.
        failpoints.disarm_all(crash_paused=True)
        for thread in threads:
            thread.join(5.0)
        assert outcomes == ["lost", "lost", "lost"]
        log.stop_group_commit()

    def test_crash_under_a_paused_lone_leader_loses_its_commit(self):
        """A leader with no waiter of its own learns a crash from the
        log, not from its force: after the crash the resumed log grows
        past its commit record's offset, so its own force "covers" the
        target with the next incarnation's bytes — it must still fail."""
        failpoints = FailpointRegistry()
        log = LogManager(failpoints=failpoints)
        log.start_group_commit()
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
        log.stop_group_commit()

    def test_crash_after_flush_is_durable(self):
        """A committer whose batch flushed before the crash was
        acknowledged; the crash must not retract that."""
        log = LogManager()
        log.start_group_commit(max_wait_seconds=0.001)
        lsn = _append(log)
        log.force_for_commit(lsn)  # returns only after the flush
        log.halt()
        log.crash()
        # The record survived the crash.
        assert log.flushed_lsn >= lsn

    def test_commit_after_halt_fails_fast(self):
        log = LogManager()
        log.start_group_commit()
        lsn = _append(log)
        log.halt()
        with pytest.raises(CommitNotDurableError):
            log.force_for_commit(lsn)
        with pytest.raises(LogHaltedError):
            _append(log)
        log.stop_group_commit()


class TestDatabaseIntegration:
    def test_crash_on_a_flusher_paused_in_the_window_forces_nothing(self):
        """The leader stops at its failpoint with the batch taken and
        unforced; the crash resumes it as crashed, so its commit is
        lost, its bytes never reach stable storage, and restart rolls
        it back while the commit acknowledged before it survives."""
        db = build_db(group_commit=True)
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
        # Group commit survived the leader's simulated crash and serves
        # new commits.
        with db.transaction() as txn:
            assert db.fetch(txn, "t", "by_id", 0) is not None  # acked → durable
            assert db.fetch(txn, "t", "by_id", 1) is None  # lost → gone
            db.insert(txn, "t", {"id": 2})
        db.close()

    def test_acknowledged_commits_survive_crash(self):
        db = build_db(group_commit=True, group_commit_max_wait_seconds=0.001)
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
