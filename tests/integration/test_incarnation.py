"""One incarnation per crash: a handle from before a crash fails.

``crash()`` retires everything volatile as one object and ``restart()``
builds the next; a transaction, scan, pin or wait left over from before
the crash must raise ``DatabaseClosedError`` at its next touch instead
of acting on the next incarnation.  Every test here parks its threads at
a failpoint or on a latch (no sleeps) and bounds each join.
"""

from __future__ import annotations

import gc
import threading
import weakref

import pytest

from repro.common.errors import DatabaseClosedError, SimulatedCrash
from repro.common.keys import decode_int_key
from tests.conftest import build_db, populate, spy_on_latch

JOIN_SECONDS = 15.0


def make_db(**overrides):
    db = build_db(**overrides)
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    return db


class Worker(threading.Thread):
    """Runs ``fn`` and keeps its outcome (result or exception)."""

    def __init__(self, fn) -> None:
        super().__init__(daemon=True)
        self.fn = fn
        self.result = None
        self.error: BaseException | None = None

    def run(self) -> None:
        try:
            self.result = self.fn()
        except BaseException as exc:  # noqa: BLE001 - the test inspects it
            self.error = exc

    def finish(self) -> "Worker":
        self.join(JOIN_SECONDS)
        assert not self.is_alive(), "worker still running (spinning or hung)"
        return self


class TestPreCrashHandles:
    def test_pre_crash_scan_raises_and_books_no_lock_to_the_reused_id(self):
        """An ``rr`` scan begun before the crash and drained after
        restart would take its S locks in the new lock table, booked to
        the new transaction that reuses its id.  It raises instead."""
        db = make_db()
        populate(db, range(20))
        db.log.force()
        stale = db.begin()
        scan = db.scan(stale, "t", "by_id")
        assert next(scan)[1]["id"] == 0

        db.crash()
        db.restart()
        fresh = db.begin()
        assert fresh.txn_id == stale.txn_id  # the stale-id window

        with pytest.raises(DatabaseClosedError):
            next(scan)
        assert db.locks.lock_count(fresh.txn_id) == 0
        with pytest.raises(DatabaseClosedError):
            db.commit(stale)
        assert db.fetch(fresh, "t", "by_id", 19) == {"id": 19, "val": "v"}
        db.commit(fresh)

    def test_pre_crash_snapshot_scan_raises_after_restart(self):
        """A snapshot scan in the same position would answer its
        remaining rows from the next incarnation.  It raises instead."""
        db = make_db()
        populate(db, range(20))
        db.log.force()
        snap = db.begin_snapshot()
        scan = db.scan(snap, "t", "by_id")
        assert next(scan)[1]["id"] == 0

        db.crash()
        db.restart()
        with pytest.raises(DatabaseClosedError):
            next(scan)
        with db.snapshot() as fresh:
            assert len(list(db.scan(fresh, "t", "by_id"))) == 20

    def test_fetch_parked_in_the_stale_route_retry_raises_across_a_crash(self):
        """A split is parked between its leaf level and its parent
        update (X tree latch held), so a Fetch of a key that moved right
        is routed to the old leaf, sees the stale route and waits out
        the SMO on the tree latch.  The crash must make it raise, not
        leave it waiting on (or retrying against) a dead incarnation."""
        db = make_db()
        populate(db, range(0, 2000, 2))
        tree = db.tables["t"].indexes["by_id"]
        assert tree.fix_page(tree.root_page_id, tree.ctx.incarnation).level > 0
        db.buffer.unfix(tree.root_page_id)
        splits = db.stats.get("btree.page_splits")
        db.failpoints.arm_pause("smo.split.after_leaf_level")

        def insert_until_split():
            txn = db.begin()
            key = 1
            while db.stats.get("btree.page_splits") == splits:
                db.insert(txn, "t", {"id": key, "val": "x" * 40})
                key += 2

        splitter = Worker(insert_until_split)
        splitter.start()
        db.failpoints.wait_until_paused("smo.split.after_leaf_level")
        shrink = next(r for r in reversed(db.log_records()) if r.op == "leaf_shrink")
        moved_key = decode_int_key(shrink.payload["moved"][-1].value)

        barrier = spy_on_latch(db.latches.tree_latch(tree.index_id))
        reader_txn = db.begin()
        reader = Worker(lambda: db.fetch(reader_txn, "t", "by_id", moved_key))
        reader.start()
        assert barrier.parked.wait(JOIN_SECONDS), "the fetch never hit the stale route"

        db.crash()
        assert isinstance(reader.finish().error, DatabaseClosedError)
        assert isinstance(splitter.finish().error, (SimulatedCrash, DatabaseClosedError))
        db.restart()
        assert db.verify_indexes() == {}

    def test_pin_held_across_crash_and_restart_leaves_the_new_pin(self):
        """A scan's Fetch Next step fixes its leaf and waits for the
        leaf's latch (an insert parked at a failpoint holds it X).
        Across crash and restart it must not unfix the page in the new
        incarnation's pool, where a pin taken after restart lives."""
        db = make_db()
        populate(db, range(0, 40, 2))
        tree = db.tables["t"].indexes["by_id"]
        leaf_id = tree.root_page_id  # one leaf holds all twenty keys
        scanner_txn = db.begin()
        scan = db.scan(scanner_txn, "t", "by_id")
        assert next(scan)[1]["id"] == 0

        db.failpoints.arm_pause("btree.insert.after_log")

        def insert_one():
            txn = db.begin()
            db.insert(txn, "t", {"id": 1, "val": "v"})

        inserter = Worker(insert_one)
        inserter.start()
        db.failpoints.wait_until_paused("btree.insert.after_log")
        leaf_latch = spy_on_latch(db.latches.page_latch(leaf_id))
        scanner = Worker(lambda: next(scan))
        scanner.start()
        assert leaf_latch.parked.wait(JOIN_SECONDS), "the scan never waited on its leaf"

        db.crash()
        db.restart()
        db.buffer.fix(leaf_id)  # the restarted incarnation's pin
        scanner.finish()
        db.buffer.unfix(leaf_id)  # still ours to release
        assert isinstance(scanner.error, DatabaseClosedError)
        inserter.finish()
        assert db.verify_indexes() == {}


class TestClosedDatabase:
    def test_close_leaves_no_volatile_state_alive(self):
        """``close()`` retires the incarnation and drops it: with the
        cyclic collector off, the pool, lock table and version store
        die with the last handle a caller holds, although the database
        itself lives on in its catalog's reference cycles."""
        gc.collect()
        gc.disable()
        try:
            db = make_db()
            populate(db, range(50))
            with db.snapshot() as snap:
                assert len(list(db.scan(snap, "t", "by_id"))) == 50
            refs = [weakref.ref(part) for part in (db.buffer, db.locks, db.versions)]
            db.close()
            del db, snap
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            gc.enable()


class TestRestartOpensLast:
    def test_begin_is_refused_until_restart_has_finished(self):
        """Before analysis sets the txn-id floor, the new incarnation's
        transaction manager would hand out ids the log already holds.
        A ``begin()`` racing restart raises instead, and the first one
        after it gets an id above every logged one."""
        db = make_db()
        populate(db, range(5))
        logged = max(record.txn_id for record in db.log.records())
        db.crash()
        db.failpoints.arm_pause("restart.before_analysis")
        restarter = Worker(db.restart)
        restarter.start()
        db.failpoints.wait_until_paused("restart.before_analysis")
        assert db.crashed
        with pytest.raises(DatabaseClosedError):
            db.begin()
        with pytest.raises(DatabaseClosedError):
            db.begin_snapshot()
        db.failpoints.release("restart.before_analysis")
        assert restarter.finish().error is None
        assert not db.crashed
        assert db.begin().txn_id > logged

    def test_failed_restart_leaves_the_database_crashed(self):
        """A restart whose analysis raises must not leave the database
        open: its fresh transaction manager never got the txn-id floor,
        and the snapshot state was never rebuilt."""
        from repro.common.errors import RecoveryError
        from repro.wal.records import LogRecord, RecordKind

        db = make_db()
        populate(db, range(5))
        # A checkpoint analysis cannot read (the old list-of-entries
        # dirty page table), named by the master record.
        begin_lsn = db.log.append(
            LogRecord(kind=RecordKind.CKPT_BEGIN, txn_id=0, undoable=False)
        )
        dirty = [{"page_id": 2, "rec_lsn": 1, "last_lsn": 1}]
        db.log.append(
            LogRecord(
                kind=RecordKind.CKPT_END,
                txn_id=0,
                undoable=False,
                payload={"txn_table": [], "dirty_pages": dirty, "next_txn_id": 10},
            )
        )
        db.log.force()
        db.log.write_master(begin_lsn)
        db.crash()
        with pytest.raises(RecoveryError):
            db.restart()
        assert db.crashed
        with pytest.raises(DatabaseClosedError):
            db.begin()
        with pytest.raises(DatabaseClosedError):
            db.begin_snapshot()
