"""Instant restart: serve-while-recovering with on-demand page recovery.

The contract under test: after ``db.instant_restart()`` the database is
open the moment analysis + loser undo finish — every read/write is
correct immediately (a touched page is recovered on first fix), losers
are invisible from the first instant (no stale reads), a second crash
at *any* point mid-drain loses nothing (the buffer DPT is pre-seeded
with every pending recLSN, so fuzzy checkpoints taken while recovering
stay honest), and the drained end state is byte-for-byte the state
stop-the-world recovery reaches.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.common.config import DatabaseConfig
from repro.common.errors import (
    ConfigError,
    DatabaseClosedError,
    PermanentIOError,
    ReproError,
)
from repro.db import Database
from repro.recovery.instant import RecoveryGovernor

ROWS = 40


def build_crashed(rows=ROWS, flush_every=2, config=None):
    """A database that crashed with committed-but-unflushed work: every
    row is committed, alternating pages are on disk (some current, some
    stale), the rest live only in the log."""
    db = Database(config or DatabaseConfig(buffer_pool_pages=96))
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    for i in range(rows):
        with db.transaction() as txn:
            db.insert(txn, "t", {"id": i, "v": f"v{i}"})
        if flush_every and i == rows // 2:
            # Half-time flush: pages on disk whose later updates are
            # log-only (the classic redo-needed shape).
            for page_id in sorted(db.buffer.dirty_page_table())[::flush_every]:
                db.flush_page(page_id)
    db.crash()
    return db


def all_rows(db, rows=ROWS):
    with db.transaction() as txn:
        return {row["id"]: row["v"] for _, row in db.scan(txn, "t", "by_id")}


class TestOnDemandRecovery:
    def test_opens_recovering_and_serves_correct_reads(self):
        db = build_crashed()
        report = db.instant_restart(background=False)
        assert report.governor is not None
        assert db.recovery_state == "recovering"
        assert db.recovery.progress()["pages_pending"] > 0
        # Every committed row readable through ordinary fetches while
        # the database is still recovering.
        with db.transaction() as txn:
            for i in range(ROWS):
                row = db.fetch(txn, "t", "by_id", i)
                assert row is not None and row["v"] == f"v{i}", i
        assert db.stats.snapshot()["recovery.pages_recovered_ondemand"] > 0
        assert db.recovery.drain(timeout=10.0)
        assert db.recovery_state == "steady"
        assert db.verify_indexes() == {}
        db.close()

    def test_background_drain_alone_recovers_everything(self):
        db = build_crashed()
        db.instant_restart(background=True)
        governor = db.recovery
        assert governor.wait_drained(timeout=10.0)
        assert governor.progress()["drained"]
        snap = db.stats.snapshot()
        assert snap["recovery.pages_recovered_background"] > 0
        assert snap.get("recovery.pages_unrecovered", 0) == 0
        assert all_rows(db) == {i: f"v{i}" for i in range(ROWS)}
        assert db.verify_indexes() == {}
        db.close()

    def test_restart_counts_its_drain_apart_from_background_work(self):
        db = build_crashed()
        db.restart()
        snap = db.stats.snapshot()
        assert snap["recovery.pages_recovered_drain"] > 0
        assert "recovery.pages_recovered_background" not in snap
        assert all_rows(db) == {i: f"v{i}" for i in range(ROWS)}
        db.close()

    def test_drained_state_matches_stop_the_world(self):
        instant = build_crashed()
        classic = build_crashed()
        instant.instant_restart(background=False)
        assert instant.recovery.drain(timeout=10.0)
        classic.restart()
        assert all_rows(instant) == all_rows(classic)
        instant.close()
        classic.close()

    def test_writes_accepted_while_recovering(self):
        db = build_crashed()
        db.instant_restart(background=False)
        assert db.recovery_state == "recovering"
        with db.transaction() as txn:
            db.insert(txn, "t", {"id": 10_000, "v": "new"})
        assert db.recovery.drain(timeout=10.0)
        rows = all_rows(db)
        assert rows[10_000] == "new"
        assert len(rows) == ROWS + 1
        db.close()

    def test_nothing_dirty_still_verifies_lazily(self):
        """A crash with everything flushed leaves no redo backlog, but
        the on-disk pages are still CRC-verified lazily."""
        db = Database(DatabaseConfig())
        db.create_table("t")
        db.create_index("t", "by_id", column="id", unique=True)
        with db.transaction() as txn:
            db.insert(txn, "t", {"id": 1, "v": "x"})
        db.flush_all_pages()
        db.checkpoint()
        db.crash()
        db.instant_restart(background=True)
        assert db.recovery.wait_drained(timeout=10.0)
        assert db.stats.snapshot().get("recovery.lazy_pages_verified", 0) > 0
        with db.transaction() as txn:
            assert db.fetch(txn, "t", "by_id", 1)["v"] == "x"
        db.close()


class TestNoStaleReads:
    def test_loser_invisible_from_first_read(self):
        db = Database(DatabaseConfig(buffer_pool_pages=96))
        db.create_table("t")
        db.create_index("t", "by_id", column="id", unique=True)
        for i in range(10):
            with db.transaction() as txn:
                db.insert(txn, "t", {"id": i, "v": f"v{i}"})
        loser = db.begin()
        db.insert(loser, "t", {"id": 999, "v": "uncommitted"})
        db.log.force()
        db.crash()
        db.instant_restart(background=False)
        # First access, still recovering: the loser must already be gone
        # (undo ran eagerly before the database opened).
        with db.transaction() as txn:
            assert db.fetch(txn, "t", "by_id", 999) is None
            assert db.fetch(txn, "t", "by_id", 5)["v"] == "v5"
        assert db.recovery.drain(timeout=10.0)
        assert 999 not in all_rows(db, rows=10)
        db.close()


class TestTornPages:
    def test_torn_pending_page_rebuilt_on_demand(self):
        db = build_crashed()
        # Corrupt one on-disk page after the crash, before restart: the
        # lazy path must rebuild it from full log history on first touch.
        victims = db.disk.page_ids()
        db.disk.corrupt(victims[len(victims) // 2])
        report = db.instant_restart(background=False)
        with db.transaction() as txn:
            for i in range(ROWS):
                assert db.fetch(txn, "t", "by_id", i) is not None, i
        assert db.recovery.drain(timeout=10.0)
        assert report.scrub.pages_rebuilt == 1
        snap = db.stats.snapshot()
        # Rebuilt on its first touch, before its chain is replayed: the
        # governor counts the lazy rebuild, the rebuild itself its own.
        rebuilt = snap.get("recovery.lazy_pages_rebuilt", 0) + snap.get(
            "recovery.pages_rebuilt_from_log", 0
        )
        assert rebuilt >= 1
        assert db.verify_indexes() == {}
        db.close()


    def test_torn_clean_page_rebuilt_at_restart_keeps_its_history(self):
        """A page torn while clean at the crash has no chain tail from
        analysis.  After its rebuild, the page's next record must still
        be recoverable together with the rebuilt history: the next
        restart replays the page along its chain only."""
        db = Database(DatabaseConfig(page_size=1024, buffer_pool_pages=64))
        db.create_table("t")
        db.create_index("t", "by_id", column="id", unique=True)
        for i in range(ROWS):
            with db.transaction() as txn:
                db.insert(txn, "t", {"id": i, "v": f"v{i}"})
        db.flush_all_pages()
        db.checkpoint()
        db.disk.corrupt(db.tables["t"].heap.page_ids[0])
        db.crash()
        assert db.restart().scrub.pages_rebuilt == 1
        with db.transaction() as txn:
            db.insert(txn, "t", {"id": ROWS, "v": f"v{ROWS}"})
        db.crash()
        report = db.instant_restart(background=False)
        assert report.governor.drain()
        assert all_rows(db, rows=ROWS + 1) == {
            i: f"v{i}" for i in range(ROWS + 1)
        }
        assert db.verify_indexes() == {}
        db.close()

    def test_rebuild_after_a_chain_break_survives_the_next_restart(self):
        """A page clean at a restart starts a fresh log chain with its
        next record.  If that page is later torn and rebuilt from its
        whole history, a chain walk from its recLSN would stop at the
        break; the rebuilt page must not depend on that walk."""
        db = Database(DatabaseConfig(page_size=1024, buffer_pool_pages=64))
        db.create_table("t")
        db.create_index("t", "by_id", column="id", unique=True)
        for i in range(ROWS):
            with db.transaction() as txn:
                db.insert(txn, "t", {"id": i, "v": f"v{i}"})
        db.flush_all_pages()
        db.checkpoint()
        db.crash()
        db.restart()
        with db.transaction() as txn:
            db.insert(txn, "t", {"id": ROWS, "v": f"v{ROWS}"})
        db.flush_all_pages()
        db.disk.corrupt(db.tables["t"].heap.page_ids[-1])
        db.crash()
        assert db.restart().scrub.pages_rebuilt == 1
        db.crash()
        db.restart()
        assert all_rows(db, rows=ROWS + 1) == {
            i: f"v{i}" for i in range(ROWS + 1)
        }
        assert db.verify_indexes() == {}
        db.close()


class TestSecondCrashMidDrain:
    def test_crash_while_recovering_loses_nothing(self):
        db = build_crashed()
        db.instant_restart(background=False)
        # Touch a couple of pages (partial on-demand progress), then
        # crash again before the drain.
        with db.transaction() as txn:
            assert db.fetch(txn, "t", "by_id", 0) is not None
            assert db.fetch(txn, "t", "by_id", ROWS - 1) is not None
        db.crash()
        db.restart()  # stop-the-world this time
        assert all_rows(db) == {i: f"v{i}" for i in range(ROWS)}
        assert db.verify_indexes() == {}
        db.close()

    def test_checkpoint_mid_drain_stays_honest(self):
        """THE pre-seeding test: a fuzzy checkpoint taken while pages
        are still unrecovered must carry their recLSNs — a crash right
        after it must still redo them from the old redo point."""
        db = build_crashed()
        db.instant_restart(background=False)
        assert db.recovery_state == "recovering"
        db.checkpoint()  # fuzzy checkpoint with the drain barely started
        db.crash()
        db.restart()  # analysis starts from that mid-drain checkpoint
        assert all_rows(db) == {i: f"v{i}" for i in range(ROWS)}
        assert db.verify_indexes() == {}
        db.close()

    def test_instant_after_instant(self):
        db = build_crashed()
        db.instant_restart(background=False)
        with db.transaction() as txn:
            assert db.fetch(txn, "t", "by_id", 3) is not None
        db.crash()
        db.instant_restart(background=True)
        assert db.recovery.wait_drained(timeout=10.0)
        assert all_rows(db) == {i: f"v{i}" for i in range(ROWS)}
        db.close()


class TestOperationalGuards:
    def test_trim_log_refused_while_recovering(self):
        db = Database(DatabaseConfig(buffer_pool_pages=96))
        db.attach_archive()
        db.create_table("t")
        db.create_index("t", "by_id", column="id", unique=True)
        for i in range(ROWS):
            with db.transaction() as txn:
                db.insert(txn, "t", {"id": i, "v": f"v{i}"})
        db.crash()
        db.instant_restart(background=False)
        assert db.recovery_state == "recovering"
        assert db.trim_log() == 0  # unverified pages may need full history
        assert db.recovery.drain(timeout=10.0)
        db.flush_all_pages()
        db.checkpoint()
        assert db.trim_log() > 0  # steady again: trimming works
        db.close()

    def test_txn_ids_never_reused(self):
        db = build_crashed(rows=12)
        db.instant_restart(background=False)
        txn = db.begin()
        assert txn.txn_id > 12
        db.rollback(txn)
        assert db.recovery.drain(timeout=10.0)
        db.close()

    def test_close_drains_first(self):
        db = build_crashed()
        db.instant_restart(background=True)
        db.close()  # must wait for the drain, then checkpoint cleanly
        assert db.stats.snapshot().get("db.close_drain_failures", 0) == 0

    def test_crash_aborts_governor(self):
        db = build_crashed()
        db.instant_restart(background=True)
        db.crash()
        assert db.recovery is None
        assert db.recovery_state == "steady"  # no governor: not recovering
        db.restart()
        assert all_rows(db) == {i: f"v{i}" for i in range(ROWS)}
        db.close()

    def test_one_background_thread_and_crash_leaves_none(self, monkeypatch):
        """The drain runs on exactly one thread, and ``crash()`` stops
        it: no recovery thread outlives the incarnation."""
        parked = threading.Event()
        ensure_recovered = RecoveryGovernor.ensure_recovered

        def park_background(governor, page_id, by="ondemand"):
            if by == "background":
                parked.set()
                governor._stop.wait(10.0)  # until the crash stops it
            ensure_recovered(governor, page_id, by)

        monkeypatch.setattr(RecoveryGovernor, "ensure_recovered", park_background)
        db = build_crashed()
        before = set(threading.enumerate())
        db.instant_restart(background=True)
        assert parked.wait(10.0)
        started = [t for t in threading.enumerate() if t not in before]
        assert len(started) == 1
        db.crash()
        assert not started[0].is_alive()
        monkeypatch.undo()
        db.restart()
        assert all_rows(db) == {i: f"v{i}" for i in range(ROWS)}
        db.close()

    def test_fatal_io_on_the_background_thread_finishes_the_crash(self, monkeypatch):
        """A permanent I/O fault on the background thread crashes the
        database from that thread; the crash must not try to join the
        thread it runs on, so it finishes like any other."""
        db = build_crashed()
        db.instant_restart(background=False)
        read = db.disk.read
        main = threading.current_thread()

        def fail_off_main(page_id):
            if threading.current_thread() is not main:
                raise PermanentIOError(f"injected fault reading page {page_id}")
            return read(page_id)

        monkeypatch.setattr(db.disk, "read", fail_off_main)
        governor = db.recovery
        governor.start_background()
        governor._thread.join(10.0)
        assert not governor._thread.is_alive()
        assert db.stats.get("db.io_panics") == 1
        assert db.stats.get("db.crashes") == 2  # build_crashed's, then this one
        assert db.crashed and db.recovery is None
        monkeypatch.undo()
        db.restart()
        assert all_rows(db) == {i: f"v{i}" for i in range(ROWS)}
        db.close()

    def test_fatal_io_before_the_restart_opens_fails_the_restart(self, monkeypatch):
        """Every disk read off the main thread fails while an instant
        restart runs.  The background thread starts before the database
        opens, and the restart is held there until that thread is done:
        its fault crashes the incarnation being built, so the restart
        raises and the database stays crashed instead of opening over
        a failed device."""
        db = build_crashed()
        read = db.disk.read
        main = threading.current_thread()
        faulted: list[threading.Thread] = []

        def fail_off_main(page_id):
            if threading.current_thread() is not main:
                faulted.append(threading.current_thread())
                raise PermanentIOError(f"injected fault reading page {page_id}")
            return read(page_id)

        rebuild = db._rebuild_mvcc_state

        def after_the_background_thread():
            # The last step before the database opens.
            deadline = time.monotonic() + 10.0
            while not faulted and time.monotonic() < deadline:
                time.sleep(0.001)
            faulted[0].join(10.0)
            rebuild()

        monkeypatch.setattr(db.disk, "read", fail_off_main)
        monkeypatch.setattr(db, "_rebuild_mvcc_state", after_the_background_thread)
        with pytest.raises(ReproError):
            db.instant_restart(background=True)
        assert faulted
        assert db.stats.get("db.io_panics") == 1
        assert db.crashed
        with pytest.raises(DatabaseClosedError):
            db.begin()
        monkeypatch.undo()
        db.restart()
        assert all_rows(db) == {i: f"v{i}" for i in range(ROWS)}
        db.close()

    def test_more_than_one_redo_worker_is_refused(self):
        db = build_crashed()
        with pytest.raises(ConfigError, match="redo_workers"):
            db.instant_restart(redo_workers=2)
        assert db.crashed  # refused before restart began
        db.instant_restart(redo_workers=1)
        assert db.recovery.wait_drained(timeout=10.0)
        assert all_rows(db) == {i: f"v{i}" for i in range(ROWS)}
        db.close()

    def test_progress_gauge_reaches_zero(self):
        db = build_crashed()
        db.instant_restart(background=True)
        assert db.recovery.wait_drained(timeout=10.0)
        snap = db.stats.snapshot()
        assert snap.get("recovery.pages_unrecovered", 0) == 0
        assert snap.get("recovery.instant_restarts", 0) == 1
        assert snap.get("recovery.instant_drains", 0) == 1
        db.close()
