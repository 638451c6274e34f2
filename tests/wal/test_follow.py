"""Follow-mode log iteration: the WAL shipper's view of the stream.

``LogManager.records(follow=True)`` must (a) never yield a record whose
frame is not entirely inside the durable (forced) prefix, (b) pick up
records appended-and-forced concurrently without busy-polling, and
(c) terminate promptly on halt/crash or a caller-supplied stop signal.
"""

import threading

import pytest

from repro.common.errors import LSNOutOfRangeError, WALError
from repro.wal.log import LogManager
from repro.wal.records import update_record
from tests.conftest import SpyCondition


def rec(txn_id=1, op="op", page=1):
    return update_record(txn_id, "heap", op, page, {"n": 1})


class Seen(list):
    """The records a follower yielded, with a wait for their count in
    place of a sleep-and-poll loop."""

    def __init__(self) -> None:
        super().__init__()
        self._cond = threading.Condition()

    def add(self, record) -> None:
        with self._cond:
            self.append(record)
            self._cond.notify_all()

    def extend_from(self, records) -> None:
        for record in records:
            self.add(record)

    def wait_for(self, count: int, timeout: float = 5.0) -> bool:
        with self._cond:
            return self._cond.wait_for(lambda: len(self) >= count, timeout)


class TestFollowBasics:
    def test_yields_only_flushed_records(self):
        log = LogManager()
        log.append(rec(op="a"))
        log.append(rec(op="b"))
        log.force()
        log.append(rec(op="unforced"))

        seen = Seen()
        stop = threading.Event()
        it = log.records(follow=True, stop=stop.is_set, poll_interval=0.005)
        t = threading.Thread(target=seen.extend_from, args=(it,), daemon=True)
        t.start()
        assert seen.wait_for(2)
        assert [r.op for r in seen] == ["a", "b"]  # never the unforced one
        stop.set()
        t.join(timeout=2.0)
        assert not t.is_alive()

    def test_picks_up_later_flushes(self):
        log = LogManager()
        seen = Seen()
        stop = threading.Event()
        it = log.records(follow=True, stop=stop.is_set, poll_interval=0.005)
        t = threading.Thread(target=seen.extend_from, args=(it,), daemon=True)
        t.start()

        for i in range(3):
            log.append(rec(op=f"op{i}"))
            log.force()
        assert seen.wait_for(3)
        assert [r.op for r in seen] == ["op0", "op1", "op2"]
        stop.set()
        t.join(timeout=2.0)

    def test_terminates_on_halt(self):
        log = LogManager()
        log.append(rec(op="a"))
        log.force()
        done = threading.Event()
        seen = Seen()

        def follow():
            seen.extend_from(log.records(follow=True, poll_interval=0.005))
            done.set()

        threading.Thread(target=follow, daemon=True).start()
        assert seen.wait_for(1)
        log.halt()
        assert done.wait(timeout=2.0), "follower did not observe the halt"
        assert [r.op for r in seen] == ["a"]

    def test_truncated_start_raises(self):
        log = LogManager()
        for _ in range(4):
            log.append(rec())
        log.force()
        log.truncate_prefix(log.end_lsn)
        with pytest.raises(LSNOutOfRangeError):
            list(log.records(from_lsn=1, follow=True, stop=lambda: False))

    def test_correct_lsns_assigned(self):
        log = LogManager()
        lsns = [log.append(rec(op=f"op{i}")) for i in range(5)]
        log.force()
        log.halt()
        followed = list(log.records(follow=True))
        assert [r.lsn for r in followed] == lsns


class TestFollowConcurrent:
    def test_concurrent_appenders_all_records_seen_in_order(self):
        """Appenders race the follower; every forced record arrives
        exactly once, in LSN order, never ahead of the flush."""
        log = LogManager()
        n_threads, per_thread = 4, 50
        seen = Seen()
        violations = []

        def follow():
            for record in log.records(follow=True, poll_interval=0.002):
                if record.lsn > log.flushed_lsn:
                    violations.append(record.lsn)
                seen.add(record)

        follower = threading.Thread(target=follow, daemon=True)
        follower.start()

        def appender(tid):
            for i in range(per_thread):
                log.append(rec(txn_id=tid, op=f"t{tid}.{i}"))
                if i % 7 == 0:
                    log.force()

        threads = [
            threading.Thread(target=appender, args=(t,)) for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        log.force()
        total = n_threads * per_thread
        assert seen.wait_for(total)
        log.halt()
        follower.join(timeout=2.0)
        assert not violations, f"records yielded past flushed_lsn: {violations}"
        assert len(seen) == total
        lsns = [r.lsn for r in seen]
        assert lsns == sorted(lsns) and len(set(lsns)) == total

    def test_follow_under_group_commit(self):
        """Concurrent commit forces coalesce; the follower must still see
        every committed record and never outrun the durable boundary."""
        log = LogManager()
        seen = Seen()
        violations = []

        def follow():
            for record in log.records(follow=True, poll_interval=0.002):
                if record.lsn > log.flushed_lsn:
                    violations.append(record.lsn)
                seen.add(record)

        follower = threading.Thread(target=follow, daemon=True)
        follower.start()

        def committer(tid):
            for i in range(20):
                lsn = log.append(rec(txn_id=tid, op=f"c{tid}.{i}"))
                log.force_for_commit(lsn)

        threads = [
            threading.Thread(target=committer, args=(t,)) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        log.force()
        total = 4 * 20
        assert seen.wait_for(total)
        log.halt()
        follower.join(timeout=2.0)
        assert not violations
        assert len(seen) == total

    def test_crash_wakes_parked_follower(self):
        log = LogManager()
        log.append(rec())
        log.force()
        # The follower drains the one record, then parks on the flush
        # condition: the spy says when.
        log._flush_cond = spy = SpyCondition(threading.RLock())  # noqa: SLF001 - test instruments the park
        done = threading.Event()
        seen = Seen()

        def follow():
            seen.extend_from(log.records(follow=True, poll_interval=0.005))
            done.set()

        threading.Thread(target=follow, daemon=True).start()
        assert spy.parked.wait(timeout=5.0)
        assert len(seen) == 1
        log.halt()
        log.crash()
        assert done.wait(timeout=2.0)


class TestRawStreamOps:
    def test_raw_slice_roundtrips_through_append_raw(self):
        primary = LogManager()
        lsns = [primary.append(rec(op=f"op{i}")) for i in range(6)]
        primary.force()

        standby = LogManager()
        chunk = primary.raw_slice(1)
        adopted = standby.append_raw(1, chunk)
        assert [r.lsn for r in adopted] == lsns
        assert [r.op for r in standby.records()] == [f"op{i}" for i in range(6)]
        assert standby.end_lsn == primary.end_lsn

    def test_append_raw_rejects_gap(self):
        primary = LogManager()
        primary.append(rec(op="a"))
        mid = primary.append(rec(op="b"))
        primary.force()
        standby = LogManager()
        with pytest.raises(WALError):
            standby.append_raw(mid, primary.raw_slice(mid))

    def test_append_raw_rejects_corrupt_chunk(self):
        primary = LogManager()
        primary.append(rec())
        primary.force()
        chunk = bytearray(primary.raw_slice(1))
        chunk[len(chunk) // 2] ^= 0xFF
        standby = LogManager()
        with pytest.raises(WALError):
            standby.append_raw(1, bytes(chunk))
        assert standby.end_lsn == 1  # nothing adopted

    def test_rebase_and_resume_mid_stream(self):
        primary = LogManager()
        for i in range(4):
            primary.append(rec(op=f"early{i}"))
        primary.force()
        resume_at = primary.end_lsn
        lsn = primary.append(rec(op="late"))
        primary.force()

        standby = LogManager()
        standby.rebase(resume_at)
        adopted = standby.append_raw(resume_at, primary.raw_slice(resume_at))
        assert [r.op for r in adopted] == ["late"]
        assert adopted[0].lsn == lsn
        assert standby.read(lsn).op == "late"

    def test_load_stream_is_fully_flushed(self):
        primary = LogManager()
        for i in range(3):
            primary.append(rec(op=f"op{i}"))
        primary.force()
        restored = LogManager()
        restored.load_stream(1, primary.raw_slice(1))
        assert restored.flushed_lsn == primary.flushed_lsn
        assert restored.unforced_bytes == 0
