"""Lock manager: granting, blocking, conversion, durations, deadlocks."""

import threading
import time

import pytest

from repro.common.errors import (
    DeadlockError,
    LockNotGrantedError,
    LockTimeoutError,
)
from repro.common.stats import LockAuditEntry, StatsRegistry
from repro.locks.manager import LockManager
from repro.locks.modes import LockDuration, LockMode
from tests.conftest import SpyCondition

NAME = ("rec", 1, "a")
OTHER = ("rec", 1, "b")


def manager(timeout=5.0):
    return LockManager(timeout=timeout)


class TestGranting:
    def test_grant_and_query(self):
        locks = manager()
        assert locks.request(1, NAME, LockMode.S, LockDuration.COMMIT)
        assert locks.held_mode(1, NAME) is LockMode.S
        assert locks.lock_count(1) == 1

    def test_compatible_sharing(self):
        locks = manager()
        locks.request(1, NAME, LockMode.S, LockDuration.COMMIT)
        assert locks.request(2, NAME, LockMode.S, LockDuration.COMMIT)

    def test_conditional_conflict_raises(self):
        locks = manager()
        locks.request(1, NAME, LockMode.X, LockDuration.COMMIT)
        with pytest.raises(LockNotGrantedError):
            locks.request(2, NAME, LockMode.S, LockDuration.COMMIT, conditional=True)

    def test_conversion_same_txn(self):
        locks = manager()
        locks.request(1, NAME, LockMode.S, LockDuration.COMMIT)
        locks.request(1, NAME, LockMode.IX, LockDuration.COMMIT)
        assert locks.held_mode(1, NAME) is LockMode.SIX

    def test_instant_duration_not_retained(self):
        locks = manager()
        locks.request(1, NAME, LockMode.X, LockDuration.INSTANT)
        assert locks.held_mode(1, NAME) is None
        # Another txn can take it immediately.
        assert locks.request(2, NAME, LockMode.X, LockDuration.COMMIT)

    def test_instant_request_still_waits_for_conflicts(self):
        locks = manager()
        locks.request(1, NAME, LockMode.X, LockDuration.COMMIT)
        elapsed = {}

        def requester():
            start = time.monotonic()
            locks.request(2, NAME, LockMode.X, LockDuration.INSTANT)
            elapsed["t"] = time.monotonic() - start

        t = threading.Thread(target=requester)
        t.start()
        time.sleep(0.3)
        locks.release_all(1)
        t.join(timeout=5)
        assert elapsed["t"] >= 0.25
        assert locks.held_mode(2, NAME) is None


class TestReleasing:
    def test_release_all_returns_count(self):
        locks = manager()
        locks.request(1, NAME, LockMode.S, LockDuration.COMMIT)
        locks.request(1, OTHER, LockMode.X, LockDuration.COMMIT)
        assert locks.release_all(1) == 2
        assert locks.lock_count(1) == 0

    def test_manual_release(self):
        locks = manager()
        locks.request(1, NAME, LockMode.X, LockDuration.MANUAL)
        locks.release(1, NAME)
        assert locks.held_mode(1, NAME) is None

    def test_release_wakes_waiter(self):
        locks = manager()
        locks.request(1, NAME, LockMode.X, LockDuration.COMMIT)
        granted = threading.Event()

        def waiter():
            locks.request(2, NAME, LockMode.S, LockDuration.COMMIT)
            granted.set()

        t = threading.Thread(target=waiter)
        t.start()
        time.sleep(0.2)
        assert not granted.is_set()
        locks.release_all(1)
        t.join(timeout=5)
        assert granted.is_set()


class TestFairness:
    def test_no_barging_past_queued_x(self):
        locks = manager()
        locks.request(1, NAME, LockMode.S, LockDuration.COMMIT)
        x_granted = threading.Event()

        def writer():
            locks.request(2, NAME, LockMode.X, LockDuration.COMMIT)
            x_granted.set()

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        time.sleep(0.2)
        # A fresh S must not overtake the queued X.
        with pytest.raises(LockNotGrantedError):
            locks.request(3, NAME, LockMode.S, LockDuration.COMMIT, conditional=True)
        locks.release_all(1)
        writer_thread.join(timeout=5)
        assert x_granted.is_set()

    def test_conversion_has_priority_over_fresh_waiters(self):
        locks = manager()
        locks.request(1, NAME, LockMode.S, LockDuration.COMMIT)
        locks.request(2, NAME, LockMode.S, LockDuration.COMMIT)
        order = []

        def upgrader():
            locks.request(1, NAME, LockMode.X, LockDuration.COMMIT)
            order.append("conversion")
            locks.release_all(1)

        def fresh():
            locks.request(3, NAME, LockMode.X, LockDuration.COMMIT)
            order.append("fresh")
            locks.release_all(3)

        t_up = threading.Thread(target=upgrader)
        t_fresh = threading.Thread(target=fresh)
        t_fresh.start()
        time.sleep(0.15)
        t_up.start()
        time.sleep(0.15)
        locks.release_all(2)  # unblocks the conversion first
        t_up.join(timeout=5)
        t_fresh.join(timeout=5)
        assert order == ["conversion", "fresh"]


class TestDeadlocks:
    def test_two_txn_cycle_detected(self):
        locks = manager()
        locks.request(1, NAME, LockMode.X, LockDuration.COMMIT)
        locks.request(2, OTHER, LockMode.X, LockDuration.COMMIT)
        blocked = threading.Event()

        def txn1():
            blocked.set()
            try:
                locks.request(1, OTHER, LockMode.X, LockDuration.COMMIT)
            except (DeadlockError, LockTimeoutError):
                pass
            finally:
                locks.release_all(1)

        t = threading.Thread(target=txn1)
        t.start()
        blocked.wait()
        time.sleep(0.2)  # let txn1 enqueue
        with pytest.raises(DeadlockError) as info:
            locks.request(2, NAME, LockMode.X, LockDuration.COMMIT)
        assert info.value.txn_id == 2
        locks.release_all(2)
        t.join(timeout=5)

    def test_detection_can_be_disabled(self):
        """With detection off, a cycle resolves by timeout (on whichever
        side expires first) and DeadlockError is never raised."""
        locks = LockManager(timeout=0.4, deadlock_detection=False)
        locks.request(1, NAME, LockMode.X, LockDuration.COMMIT)
        locks.request(2, OTHER, LockMode.X, LockDuration.COMMIT)
        outcomes = []

        def side(txn_id, name):
            try:
                locks.request(txn_id, name, LockMode.X, LockDuration.COMMIT)
                outcomes.append("granted")
            except LockTimeoutError:
                outcomes.append("timeout")
                locks.release_all(txn_id)
            except DeadlockError:  # pragma: no cover - must not happen
                outcomes.append("deadlock")

        t1 = threading.Thread(target=side, args=(1, OTHER))
        t2 = threading.Thread(target=side, args=(2, NAME))
        t1.start()
        t2.start()
        t1.join(timeout=5)
        t2.join(timeout=5)
        assert "deadlock" not in outcomes
        assert "timeout" in outcomes
        locks.release_all(1)
        locks.release_all(2)

    def test_timeout_raises(self):
        locks = LockManager(timeout=0.3)
        locks.request(1, NAME, LockMode.X, LockDuration.COMMIT)
        with pytest.raises(LockTimeoutError):
            locks.request(2, NAME, LockMode.X, LockDuration.COMMIT)
        locks.release_all(1)
        # The abandoned waiter must not corrupt the queue.
        assert locks.request(3, NAME, LockMode.X, LockDuration.COMMIT)


def _spy_on(locks: LockManager) -> SpyCondition:
    locks._cond = SpyCondition(locks._mutex)  # noqa: SLF001 - test instruments the wait path
    return locks._cond  # noqa: SLF001


class TestUncontendedFastPath:
    """A request on a name nobody holds is granted without a lock head
    being built per call; everything after that first grant — queueing,
    deadlock detection, timeouts — must behave as it always did."""

    def test_conflict_after_fast_grant_queues_and_is_woken(self):
        stats = StatsRegistry()
        locks = LockManager(stats, timeout=5.0)
        cond = _spy_on(locks)
        assert locks.request(1, NAME, LockMode.X, LockDuration.COMMIT) is True
        immediate = []

        def second():
            immediate.append(locks.request(2, NAME, LockMode.S, LockDuration.COMMIT))

        t = threading.Thread(target=second)
        t.start()
        assert cond.parked.wait(5)
        assert stats.get("lock.waits") == 1
        assert locks.held_mode(2, NAME) is None
        assert locks.release_all(1) == 1
        t.join(timeout=5)
        assert not t.is_alive()
        assert immediate == [False]
        assert locks.held_mode(2, NAME) is LockMode.S
        assert locks.locks_of(2) == [(NAME, LockMode.S, LockDuration.COMMIT)]

    def test_deadlock_between_two_fast_grants_is_detected(self):
        locks = manager()
        cond = _spy_on(locks)
        locks.request(1, NAME, LockMode.X, LockDuration.COMMIT)
        locks.request(2, OTHER, LockMode.X, LockDuration.COMMIT)

        def txn1():
            try:
                locks.request(1, OTHER, LockMode.X, LockDuration.COMMIT)
            finally:
                locks.release_all(1)

        t = threading.Thread(target=txn1)
        t.start()
        assert cond.parked.wait(5)
        with pytest.raises(DeadlockError) as info:
            locks.request(2, NAME, LockMode.X, LockDuration.COMMIT)
        assert info.value.txn_id == 2
        locks.release_all(2)
        t.join(timeout=5)
        assert not t.is_alive()
        assert locks._table == {}  # noqa: SLF001 - every head was collected

    def test_timeout_behind_a_fast_grant(self):
        stats = StatsRegistry()
        locks = LockManager(stats, timeout=0.05)
        locks.request(1, NAME, LockMode.X, LockDuration.COMMIT)
        with pytest.raises(LockTimeoutError):
            locks.request(2, NAME, LockMode.X, LockDuration.COMMIT)
        assert stats.get("lock.timeouts") == 1
        assert locks.held_mode(1, NAME) is LockMode.X
        locks.release_all(1)
        assert locks._table == {}  # noqa: SLF001

    def test_instant_request_on_a_free_name_leaves_no_trace(self):
        stats = StatsRegistry()
        locks = LockManager(stats)
        assert locks.request(1, NAME, LockMode.X, LockDuration.INSTANT) is True
        assert locks._table == {}  # noqa: SLF001
        assert locks.lock_count(1) == 0
        assert locks.release_all(1) == 0
        assert stats.get("lock.requests.X.instant") == 1

    def test_fast_grant_is_audited_like_any_other(self):
        stats = StatsRegistry()
        locks = LockManager(stats)
        locks.request(1, NAME, LockMode.S, LockDuration.COMMIT)
        assert stats.lock_audit() == []
        stats.enable_lock_audit()
        stats.set_operation("fetch")
        locks.request(1, OTHER, LockMode.S, LockDuration.COMMIT)
        locks.request(2, OTHER, LockMode.S, LockDuration.INSTANT)
        assert stats.lock_audit() == [
            LockAuditEntry(1, OTHER, "S", "commit", "fetch", True),
            LockAuditEntry(2, OTHER, "S", "instant", "fetch", True),
        ]
