"""Group commit: coalesced flushes, durability, crash resolution.

The flusher thread parks committers on a condition variable and covers
a whole batch with one synchronous force.  These tests exercise the
mechanism directly through LogManager and through the Database facade:
coalescing actually saves flushes, an acknowledged commit is always
durable, and a crash landing between batch enqueue and flush settles
every parked committer with CommitNotDurableError.

The enqueue→flush window is reached deterministically: the flusher
pauses at the ``log.group_commit.before_flush`` failpoint with a batch
taken and nothing forced.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.common.errors import CommitNotDurableError, LogHaltedError
from repro.common.failpoints import FailpointRegistry
from repro.common.stats import StatsRegistry
from repro.wal.log import LogManager
from repro.wal.records import LogRecord, RecordKind

from tests.conftest import build_db

FLUSH_WINDOW = "log.group_commit.before_flush"


def _append(log: LogManager, txn_id: int = 1) -> int:
    return log.append(LogRecord(kind=RecordKind.COMMIT, txn_id=txn_id))


def _park_flusher(log: LogManager, failpoints: FailpointRegistry) -> threading.Thread:
    """Pause the flusher on a sentinel commit, so committers that
    arrive next queue behind it as waiters not yet taken.  Returns the
    sentinel's thread (it finishes once the pause is released)."""
    failpoints.arm_pause(FLUSH_WINDOW)
    sentinel = threading.Thread(
        target=log.force_for_commit, args=(_append(log, txn_id=999),)
    )
    sentinel.start()
    failpoints.wait_until_paused(FLUSH_WINDOW)
    return sentinel


def _wait_until(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.001)
    return predicate()


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

    def test_stop_flushes_leftovers(self):
        failpoints = FailpointRegistry()
        log = LogManager(failpoints=failpoints)
        log.start_group_commit(max_wait_seconds=0.001)
        sentinel = _park_flusher(log, failpoints)
        lsn = _append(log)
        done = threading.Event()

        def committer():
            log.force_for_commit(lsn)
            done.set()

        thread = threading.Thread(target=committer)
        thread.start()
        # The sentinel's batch is in flight; the committer is a waiter.
        assert _wait_until(lambda: log.group_commit_parked == 2)
        # Stop with the waiter still queued.  stop_group_commit joins
        # the paused flusher, so it runs on a helper thread and the
        # pause is released once the stop has taken the leftovers.
        stopper = threading.Thread(target=log.stop_group_commit)
        stopper.start()
        assert _wait_until(lambda: not log.group_commit_enabled)
        failpoints.release(FLUSH_WINDOW)
        stopper.join(5.0)
        # Leftovers must still be flushed and acked.
        assert done.wait(5.0)
        thread.join(5.0)
        sentinel.join(5.0)
        assert log.flushed_lsn >= lsn


class TestCoalescing:
    def test_batch_costs_one_sync_force(self):
        """N parked committers resolve with a single synchronous I/O."""
        failpoints = FailpointRegistry()
        stats = StatsRegistry()
        log = LogManager(stats, failpoints)
        log.start_group_commit(max_wait_seconds=0.05)
        sentinel = _park_flusher(log, failpoints)
        lsns = [_append(log, txn_id=i + 1) for i in range(8)]
        threads = [
            threading.Thread(target=log.force_for_commit, args=(lsn,))
            for lsn in lsns
        ]
        for thread in threads:
            thread.start()
        assert _wait_until(lambda: log.group_commit_parked == 9)
        forces_before = stats.get("log.sync_forces")
        failpoints.release(FLUSH_WINDOW)
        for thread in threads + [sentinel]:
            thread.join(5.0)
        assert log.flushed_lsn >= max(lsns)
        # One force for the sentinel's batch, one for all eight.
        assert stats.get("log.sync_forces") - forces_before == 2
        assert stats.get("log.group_commit_flushes_saved") == 7
        log.stop_group_commit()

    def test_flushes_saved_counter(self):
        """Concurrent committers on a database show flushes saved in
        the stats (the e15/acceptance assertion in miniature)."""
        db = build_db(group_commit=True, group_commit_max_wait_seconds=0.005)
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
    def test_crash_between_enqueue_and_flush_raises(self):
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
        assert _wait_until(lambda: log.group_commit_parked == 3)
        log.halt()
        log.crash()
        # The paused flusher resumes as crashed, as in Database.crash.
        failpoints.disarm_all(crash_paused=True)
        for thread in threads:
            thread.join(5.0)
        assert outcomes == ["lost", "lost", "lost"]
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
        """The flusher stops at its failpoint with the batch taken and
        unforced; the crash resumes it as crashed, so the parked commit
        is lost, its bytes never reach stable storage, and restart rolls
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
        # The flusher survived its simulated crash and serves new commits.
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
