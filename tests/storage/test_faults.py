"""Fault injection: determinism, tears, transient retry, escalation."""

import pytest

from repro.common.config import DatabaseConfig
from repro.common.errors import (
    CorruptPageError,
    PermanentIOError,
    TransientIOError,
)
from repro.db import Database
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.faults import (
    FaultInjector,
    FaultPlan,
    torn_image,
    with_io_retries,
)
from repro.wal.log import LogManager


def probe_sequence(injector: FaultInjector, reads: int = 60) -> list[str]:
    """Classify each of ``reads`` read attempts on distinct pages."""
    out = []
    for page_id in range(1, reads + 1):
        try:
            injector.before_read(page_id)
            out.append("ok")
        except TransientIOError:
            out.append("transient")
        except PermanentIOError:
            out.append("permanent")
    return out


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        plan = FaultPlan(
            seed=99,
            transient_read_probability=0.3,
            permanent_read_probability=0.1,
        )
        a = probe_sequence(FaultInjector(plan))
        b = probe_sequence(FaultInjector(plan))
        assert a == b
        assert "transient" in a  # the schedule actually injects

    def test_different_seed_different_schedule(self):
        base = dict(transient_read_probability=0.3, permanent_read_probability=0.1)
        a = probe_sequence(FaultInjector(FaultPlan(seed=1, **base)))
        b = probe_sequence(FaultInjector(FaultPlan(seed=2, **base)))
        assert a != b

    def test_all_defaults_plan_is_silent(self):
        injector = FaultInjector(FaultPlan(seed=0))
        assert probe_sequence(injector) == ["ok"] * 60
        assert injector.counters == {}

    def test_disarmed_injector_is_silent(self):
        injector = FaultInjector(
            FaultPlan(seed=0, transient_read_probability=1.0)
        )
        injector.disarm()
        assert probe_sequence(injector, reads=10) == ["ok"] * 10
        injector.arm()
        with pytest.raises(TransientIOError):
            injector.before_read(1)


class TestTransientFaults:
    def test_transient_run_is_bounded_then_succeeds(self):
        injector = FaultInjector(
            FaultPlan(
                seed=3, transient_read_probability=1.0, max_transient_failures=2
            )
        )
        failures = 0
        for _ in range(10):  # well past the failure bound
            try:
                injector.before_read(7)
                break
            except TransientIOError:
                failures += 1
        else:
            pytest.fail("transient fault never cleared")
        assert 1 <= failures <= 2

    def test_with_io_retries_absorbs_transients(self):
        injector = FaultInjector(
            FaultPlan(
                seed=5, transient_read_probability=1.0, max_transient_failures=2
            )
        )
        disk = DiskManager(page_size=256, fault_injector=injector)
        injector.disarm()
        disk.write(1, b"payload")
        injector.arm()
        body = with_io_retries(lambda: disk.read(1), attempts=4)
        assert body == b"payload"

    def test_with_io_retries_promotes_exhausted_budget(self):
        attempts = []

        def always_flaky():
            attempts.append(1)
            raise TransientIOError("still flaky")

        with pytest.raises(PermanentIOError):
            with_io_retries(always_flaky, attempts=3)
        assert len(attempts) == 3

    def test_permanent_fault_propagates_immediately(self):
        attempts = []

        def dead_device():
            attempts.append(1)
            raise PermanentIOError("gone")

        with pytest.raises(PermanentIOError):
            with_io_retries(dead_device, attempts=5)
        assert len(attempts) == 1


class TestTornWrites:
    def torn_disk(self, seed: int = 11) -> tuple[DiskManager, FaultInjector]:
        injector = FaultInjector(
            FaultPlan(seed=seed, torn_write_probability=1.0)
        )
        return DiskManager(page_size=1024, fault_injector=injector), injector

    def test_tear_surfaces_only_after_crash(self):
        disk, injector = self.torn_disk()
        injector.disarm()
        disk.write(1, b"a" * 1000)
        injector.arm()
        disk.write(1, b"b" * 1000)
        # Before the crash the write looks complete.
        assert disk.read(1) == b"b" * 1000
        disk.crash()
        with pytest.raises(CorruptPageError):
            disk.read(1)

    def test_complete_rewrite_clears_pending_tear(self):
        disk, injector = self.torn_disk()
        injector.disarm()
        disk.write(1, b"a" * 1000)
        injector.arm()
        disk.write(1, b"b" * 1000)  # torn-pending
        injector.disarm()
        disk.write(1, b"c" * 1000)  # complete write supersedes the tear
        disk.crash()
        assert disk.read(1) == b"c" * 1000

    def test_first_write_of_a_page_can_tear(self):
        disk, _ = self.torn_disk()
        disk.write(1, b"b" * 1000)  # old image is all zeros
        disk.crash()
        with pytest.raises(CorruptPageError):
            disk.read(1)

    def test_undetectable_mix_is_not_stored_as_a_tear(self):
        """A suffix tear whose split lands past the end of a *short* old
        body yields old header + complete old body + new bytes only in
        the region past the old length — an image that unframes cleanly
        as the OLD page.  Persisting that at crash time would be a
        silent lost write (valid CRC, stale content, invisible to the
        scrub), so the disk must treat it as a completed atomic write."""
        injector = FaultInjector(
            FaultPlan(seed=0, torn_write_probability=1.0)
        )
        # Force the dangerous geometry instead of sampling it.
        injector.plan_tear = lambda page_id, n_sectors: ("suffix", 1)
        disk = DiskManager(page_size=2048, fault_injector=injector)
        disk.write(1, b"o" * 60)  # short old body: frame ends in sector 0
        disk.write(1, b"n" * 900)  # long new write, "torn" at sector 1
        disk.crash()
        assert disk.read(1) == b"n" * 900  # neither corrupt nor stale

    def test_torn_image_mixing(self):
        new, old = b"N" * 1024, b"O" * 1024
        assert torn_image(new, old, 512, ("prefix", 1)) == b"N" * 512 + b"O" * 512
        assert torn_image(new, old, 512, ("suffix", 1)) == b"O" * 512 + b"N" * 512
        with pytest.raises(ValueError):
            torn_image(b"x", b"yy", 512, ("prefix", 1))


class TestRecoveryMode:
    def test_recovery_mode_stops_hard_faults(self):
        injector = FaultInjector(
            FaultPlan(
                seed=1,
                permanent_read_probability=1.0,
                permanent_write_probability=1.0,
                torn_write_probability=1.0,
                wal_tail_loss_probability=1.0,
            )
        )
        injector.enter_recovery_mode()
        injector.before_read(1)  # no raise
        injector.before_write(1)
        assert injector.plan_tear(1, 8) is None
        assert injector.tail_loss(500) == 0

    def test_tail_loss_bounded_by_unforced_bytes(self):
        injector = FaultInjector(
            FaultPlan(seed=4, wal_tail_loss_probability=1.0)
        )
        for unforced in (1, 10, 500):
            kept = injector.tail_loss(unforced)
            assert 1 <= kept <= unforced
        assert injector.tail_loss(0) == 0


class TestEscalation:
    def make_pool(self, injector: FaultInjector) -> tuple[BufferPool, DiskManager]:
        disk = DiskManager(page_size=512, fault_injector=injector)
        pool = BufferPool(disk, LogManager(), capacity=8)
        return pool, disk

    def test_buffer_pool_escalates_persistent_transient(self):
        injector = FaultInjector(
            FaultPlan(
                seed=0,
                transient_read_probability=1.0,
                max_transient_failures=10,  # outlives the retry budget
            )
        )
        pool, disk = self.make_pool(injector)
        injector.disarm()
        disk.write(1, b"x")
        injector.arm()
        seen = []
        pool.on_fatal_io = seen.append
        with pytest.raises(PermanentIOError):
            pool.fix(1)
        assert len(seen) == 1

    def test_database_panics_cleanly_on_permanent_write_fault(self):
        injector = FaultInjector(
            FaultPlan(seed=0, permanent_write_probability=1.0)
        )
        injector.disarm()
        db = Database(
            DatabaseConfig(buffer_pool_pages=64), fault_injector=injector
        )
        db.create_table("t")
        db.create_index("t", "by_id", column="id", unique=True)
        txn = db.begin()
        db.insert(txn, "t", {"id": 1, "val": "v"})
        db.commit(txn)
        dirty = list(db.buffer.dirty_page_table())
        injector.arm()
        with pytest.raises(PermanentIOError):
            db.flush_page(dirty[0])
        assert db.stats.get("db.io_panics") == 1
        # The database crashed itself; recovery brings the row back.
        injector.enter_recovery_mode()
        db.restart()
        txn = db.begin()
        assert db.fetch(txn, "t", "by_id", 1)["id"] == 1
        db.commit(txn)
