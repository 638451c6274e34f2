"""No lost wake-ups: a force wakes every follower parked before it.

A force notifies the flush condition only when a follower is parked
on it.  These tests park followers whose waits end only on a notify
(no timeout to fall back on), so a lost wake-up hangs the follower
and fails the join instead of passing late.
"""

from __future__ import annotations

import sys
import threading

from repro.wal.log import LogManager
from repro.wal.records import LogRecord, RecordKind

from tests.conftest import SpyCondition


class NotifyOnlyCondition(SpyCondition):
    """A flush condition whose waits end only on a notify, and which
    counts the parked waits."""

    def __init__(self) -> None:
        super().__init__(threading.RLock())
        self.parks = threading.Semaphore(0)

    def wait(self, timeout=None):
        self.parks.release()
        return super().wait(None)


def _append(log: LogManager) -> int:
    return log.append(LogRecord(kind=RecordKind.COMMIT, txn_id=1))


def test_force_wakes_a_parked_wait_for_flush_and_follow_iterator():
    log = LogManager()
    log.append(LogRecord(kind=RecordKind.COMMIT, txn_id=1))
    log.force()
    log._flush_cond = spy = NotifyOnlyCondition()  # noqa: SLF001 - test instruments the park
    lsn = _append(log)
    target = log.force_target(lsn)
    woke: list[object] = []

    def wait_for_flush() -> None:
        woke.append(log.wait_for_flush(target, timeout=60.0))

    def follow() -> None:
        for record in log.records(follow=True, poll_interval=60.0):
            if record.lsn == lsn:
                woke.append(record.lsn)
                return

    threads = [
        threading.Thread(target=wait_for_flush, daemon=True),
        threading.Thread(target=follow, daemon=True),
    ]
    for thread in threads:
        thread.start()
    for _ in threads:
        assert spy.parks.acquire(timeout=5.0)
    assert log._flush_followers == 2  # noqa: SLF001 - both counted while parked
    log.force()
    for thread in threads:
        thread.join(5.0)
        assert not thread.is_alive(), "a parked follower missed the force"
    assert sorted(woke) == sorted([target, lsn])
    assert spy.notifies == 1
    log.halt()


def test_force_with_nobody_parked_does_not_notify():
    log = LogManager()
    log._flush_cond = spy = NotifyOnlyCondition()  # noqa: SLF001 - test counts notifies
    _append(log)
    log.force()
    assert spy.notifies == 0
    assert log._flush_followers == 0  # noqa: SLF001 - nobody counted


def test_stress_committers_and_a_follower_lose_no_wake_up():
    """Group-commit committers (leading waiter-less, parking, taking
    hand-offs) race a follower under a short switch interval: every
    commit is durable when acknowledged, and the follower, whose waits
    end only on a notify, sees every record."""
    log = LogManager()
    log.start_group_commit(max_wait_seconds=0.001)
    log._flush_cond = NotifyOnlyCondition()  # noqa: SLF001 - waits end only on a notify
    committers, per_committer = 8, 100
    total = committers * per_committer
    seen = threading.Event()
    late: list[int] = []

    def follow() -> None:
        count = 0
        for _ in log.records(follow=True, poll_interval=60.0):
            count += 1
            if count == total:
                seen.set()
                return

    def commit() -> None:
        for _ in range(per_committer):
            lsn = _append(log)
            log.force_for_commit(lsn)
            if log.flushed_lsn < log.force_target(lsn):
                late.append(lsn)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        follower = threading.Thread(target=follow, daemon=True)
        follower.start()
        threads = [threading.Thread(target=commit) for _ in range(committers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
            assert not thread.is_alive()
        assert seen.wait(30.0), "the follower missed a force"
    finally:
        sys.setswitchinterval(old)
    follower.join(5.0)
    assert not follower.is_alive()
    assert late == []
    assert log.group_commit_parked == 0
    log.stop_group_commit()
