"""Counter registry, diffs, and the lock audit trail."""

import sys
import threading

from repro.common.stats import OperationProbe, StatsRegistry


class TestCounters:
    def test_incr_and_get(self):
        stats = StatsRegistry()
        stats.incr("a")
        stats.incr("a", 4)
        assert stats.get("a") == 5
        assert stats.get("missing") == 0

    def test_disabled_registry_ignores_increments(self):
        stats = StatsRegistry(enabled=False)
        stats.incr("a")
        assert stats.get("a") == 0

    def test_snapshot_diff(self):
        stats = StatsRegistry()
        stats.incr("x", 2)
        before = stats.snapshot()
        stats.incr("x")
        stats.incr("y", 3)
        delta = stats.diff(before)
        assert delta == {"x": 1, "y": 3}

    def test_reset(self):
        stats = StatsRegistry()
        stats.incr("x")
        stats.reset()
        assert stats.get("x") == 0

    def test_thread_safety_of_increments(self):
        stats = StatsRegistry()

        def bump():
            for _ in range(1000):
                stats.incr("n")

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert stats.get("n") == 8000

    def test_format_table_filters_by_prefix(self):
        stats = StatsRegistry()
        stats.incr("lock.requests", 2)
        stats.incr("latch.acquisitions", 1)
        table = stats.format_table("lock.")
        assert "lock.requests" in table
        assert "latch" not in table


class TestConcurrency:
    """The registry's documented guarantees under many threads: incr is
    an atomic read-modify-write, snapshot is a consistent point-in-time
    copy, max_gauge is an atomic compare-and-raise.  The server's
    executor pool depends on all three."""

    def test_concurrent_incr_across_many_counters(self):
        stats = StatsRegistry()
        names = [f"c{i}" for i in range(16)]

        def bump(seed: int) -> None:
            for i in range(2000):
                stats.incr(names[(seed + i) % len(names)])

        threads = [threading.Thread(target=bump, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = stats.snapshot()
        assert sum(snap[name] for name in names) == 8 * 2000

    def test_snapshot_is_consistent_under_writers(self):
        """Two counters always bumped together in one incr-pair; a
        snapshot may lag but must never see a negative diff when the
        writers keep a+b invariantly even."""
        stats = StatsRegistry()
        stop = threading.Event()

        def writer() -> None:
            while not stop.is_set():
                stats.incr("pair", 2)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            for _ in range(200):
                assert stats.snapshot().get("pair", 0) % 2 == 0
        finally:
            stop.set()
            for t in threads:
                t.join()

    def test_max_gauge_concurrent_raise_to_max(self):
        stats = StatsRegistry()

        def racer(base: int) -> None:
            for value in range(base, base + 500):
                stats.max_gauge("peak", value)

        threads = [threading.Thread(target=racer, args=(b,)) for b in (0, 250, 500)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert stats.get("peak") == 999

    def test_max_gauge_never_lowers(self):
        stats = StatsRegistry()
        stats.max_gauge("peak", 10)
        stats.max_gauge("peak", 3)
        assert stats.get("peak") == 10

    def test_disabled_registry_max_gauge_noop(self):
        stats = StatsRegistry(enabled=False)
        stats.max_gauge("peak", 10)
        assert stats.get("peak") == 0


class TestShards:
    """Counters live in per-thread shards merged by the readers."""

    def test_exited_threads_are_folded_and_their_shards_dropped(self):
        stats = StatsRegistry()
        threads = [threading.Thread(target=stats.incr, args=("n",)) for _ in range(200)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
            assert not t.is_alive()
        stats.incr("n", 0)  # this thread has a shard of its own too
        assert stats.snapshot()["n"] == 200
        assert len(stats._shards) <= threading.active_count()  # noqa: SLF001
        assert stats.get("n") == 200  # folded counts are kept, not dropped

    def test_reset_drops_shards_and_later_increments_count_from_zero(self):
        stats = StatsRegistry()
        worker = threading.Thread(target=stats.incr, args=("n", 5))
        worker.start()
        worker.join(10)
        stats.incr("n", 2)
        stats.gauge("g", 9)
        stats.reset()
        assert stats._shards == []  # noqa: SLF001
        assert stats.snapshot() == {}
        stats.incr("n")
        assert stats.snapshot() == {"n": 1}

    def test_tuple_of_names_bumps_each_counter_once(self):
        stats = StatsRegistry()
        stats.incr(("latch.acquisitions", "latch.acquisitions.S"))
        stats.incr(("latch.acquisitions", "latch.acquisitions.X"), 2)
        stats.incr("latch.acquisitions.S")
        assert stats.snapshot() == {
            "latch.acquisitions": 3,
            "latch.acquisitions.S": 2,
            "latch.acquisitions.X": 2,
        }
        assert stats.get("latch.acquisitions") == 3
        assert dict(stats.iter_sorted()) == stats.snapshot()

    def test_gauges_and_counters_merge_in_one_snapshot(self):
        stats = StatsRegistry()
        stats.gauge("pending", 7)
        stats.max_gauge("peak", 3)
        stats.incr("done", 2)
        before = stats.snapshot()
        assert before == {"pending": 7, "peak": 3, "done": 2}
        stats.gauge("pending", 4)
        stats.incr("done")
        assert stats.diff(before) == {"pending": -3, "done": 1}

    def test_stress_no_lost_update_and_no_torn_pair(self):
        """More writers than cores, a short switch interval, readers
        snapshotting throughout: no increment is lost, and the two
        counters of one tuple bump are never seen apart."""
        stats = StatsRegistry()
        pair = ("total", "total.a")
        rounds, writers = 3000, 8
        torn = []
        stop = threading.Event()

        def write() -> None:
            for _ in range(rounds):
                stats.incr(pair)
                stats.incr("solo", 2)

        def read() -> None:
            while not stop.is_set():
                snap = stats.snapshot()
                if snap.get("total", 0) != snap.get("total.a", 0) or snap.get("solo", 0) % 2:
                    torn.append(snap)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            reader = threading.Thread(target=read)
            reader.start()
            threads = [threading.Thread(target=write) for _ in range(writers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
                assert not t.is_alive()
            stop.set()
            reader.join(10)
            assert not reader.is_alive()
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert torn == []
        assert stats.snapshot() == {
            "total": rounds * writers,
            "total.a": rounds * writers,
            "solo": 2 * rounds * writers,
        }


class TestLockAudit:
    def test_audit_disabled_by_default(self):
        stats = StatsRegistry()
        stats.record_lock(1, ("rec", 1), "S", "commit", True)
        assert stats.lock_audit() == []

    def test_audit_records_with_operation_label(self):
        stats = StatsRegistry()
        stats.enable_lock_audit()
        stats.set_operation("fetch")
        stats.record_lock(1, ("rec", 1), "S", "commit", True)
        stats.clear_operation()
        stats.record_lock(1, ("rec", 2), "X", "instant", False)
        entries = stats.lock_audit()
        assert entries[0].operation == "fetch"
        assert entries[1].operation == ""
        assert entries[1].granted_immediately is False

    def test_operation_probe_scopes_entries(self):
        stats = StatsRegistry()
        with OperationProbe(stats, "op-a") as probe:
            stats.record_lock(1, ("rec", 1), "S", "commit", True)
        stats.set_operation("other")
        stats.record_lock(1, ("rec", 2), "S", "commit", True)
        assert len(probe.entries) == 1
        assert probe.entries[0].name == ("rec", 1)

    def test_operation_label_is_thread_local(self):
        stats = StatsRegistry()
        stats.enable_lock_audit()
        stats.set_operation("main-op")
        seen = []

        def other_thread():
            seen.append(stats.operation)

        t = threading.Thread(target=other_thread)
        t.start()
        t.join()
        assert seen == [""]
        assert stats.operation == "main-op"
