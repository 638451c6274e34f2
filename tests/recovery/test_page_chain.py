"""Per-page log chains read from the PageLSN.

Every page record links to the PageLSN its page carried when the record
was logged, so a page's chain runs unbroken from its format record
through any number of restarts: a page clean at a crash links its next
record to the PageLSN on disk, and a page dirty at the crash is
recovered before anything can log against it.
"""

from __future__ import annotations

import sys
import threading

from repro.analysis.walcheck import check_log
from repro.common.config import DatabaseConfig
from repro.db import Database
from repro.recovery.checkpoint import unpack_dirty_pages
from repro.storage.page import Page
from repro.wal.records import NULL_LSN, RecordKind
from tests.conftest import build_db

ROWS = 60


def build(rows=ROWS) -> Database:
    db = Database(DatabaseConfig(page_size=1024, buffer_pool_pages=64))
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    for i in range(rows):
        with db.transaction() as txn:
            db.insert(txn, "t", {"id": i, "v": f"v{i}"})
    return db


def first_records_since(db: Database, lsn: int) -> dict:
    """Page → its first redoable record at or after ``lsn``."""
    first = {}
    for record in db.log.records(lsn):
        if record.is_redoable:
            first.setdefault(record.page_id, record)
    return first


def test_write_after_restart_links_to_the_on_disk_page_lsn():
    db = build()
    db.flush_all_pages()
    db.checkpoint()
    db.crash()
    db.restart()
    restarted_at = db.log.end_lsn
    with db.transaction() as txn:
        db.insert(txn, "t", {"id": ROWS, "v": "new"})
    first = first_records_since(db, restarted_at)
    assert first  # the heap page and the index leaf
    for page_id, record in first.items():
        on_disk = Page.from_bytes(db.disk.read(page_id)).page_lsn
        assert on_disk != NULL_LSN
        assert record.prev_page_lsn == on_disk, page_id
    db.close()


def test_checkpoint_while_recovering_carries_each_pending_page_head():
    """A page restart has not recovered yet has no frame, or a partly
    replayed one: a checkpoint taken meanwhile records the chain tail
    analysis found, so a second crash still reaches all its records."""
    db = build()
    db.crash()
    report = db.instant_restart(background=False)
    heads = report.analysis.page_heads
    pending = set(report.analysis.dirty_pages)
    assert pending
    ckpt = db.checkpoint()
    end = next(
        r for r in db.log.records(ckpt) if r.kind is RecordKind.CKPT_END
    )
    carried = {
        page_id: last_lsn
        for page_id, _, last_lsn in unpack_dirty_pages(end.payload["dirty_pages"])
    }
    assert pending <= set(carried)
    for page_id in pending:
        assert carried[page_id] == heads[page_id], page_id
    db.crash()
    db.restart()
    with db.transaction() as txn:
        rows = {row["id"] for _, row in db.scan(txn, "t", "by_id")}
    assert rows == set(range(ROWS))
    assert db.verify_indexes() == {}
    db.close()


def test_no_chain_starts_anywhere_but_a_format_across_two_restarts():
    db = build()
    db.flush_all_pages()
    db.checkpoint()
    db.crash()
    db.restart()
    with db.transaction() as txn:
        for i in range(ROWS, ROWS + 20):
            db.insert(txn, "t", {"id": i, "v": f"v{i}"})
        db.delete_by_key(txn, "t", "by_id", 3)
    db.flush_all_pages()
    with db.transaction() as txn:
        db.insert(txn, "t", {"id": ROWS + 20, "v": "late"})
    db.crash()
    db.restart()
    report = check_log(db.log)
    assert report.ok, report.format()
    starts = [
        r.op
        for r in db.log.records()
        if r.is_redoable and r.prev_page_lsn == NULL_LSN
    ]
    assert set(starts) <= {"format", "page_format"}
    db.close()


def test_concurrent_writers_keep_every_chain_linked():
    """Six writers on shared pages, switching threads every
    microsecond: each record still links to its page's previous record,
    because each is logged under the page's X latch."""
    db = build_db(page_size=1024)
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    errors = []

    def writer(base):
        try:
            for i in range(40):
                with db.transaction() as txn:
                    db.insert(txn, "t", {"id": base + i, "v": "x" * 20})
                    if i % 4 == 3:
                        db.delete_by_key(txn, "t", "by_id", base + i - 1)
        except Exception as exc:  # noqa: BLE001 - surfaced by the assert below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=writer, args=(n * 1000,)) for n in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    db.crash()
    db.restart()
    report = check_log(db.log)
    assert report.ok, report.format()
    with db.transaction() as txn:
        rows = {row["id"] for _, row in db.scan(txn, "t", "by_id")}
    assert len(rows) == 6 * 30
    assert db.verify_indexes() == {}
    db.close()


def checkpoint_inside_first_page_append(db: Database) -> list[int]:
    """Make the next page record's append run a checkpoint right after
    it, before the writer applies the change and stamps the PageLSN —
    as another thread's commit may.  Returns the LSNs of the records
    that triggered it."""
    log_for = db.txns.log_for
    fired: list[int] = []

    def log_then_checkpoint(txn, record):
        lsn = log_for(txn, record)
        if record.page_id and not fired:
            fired.append(lsn)
            db.checkpoint()
        return lsn

    db.txns.log_for = log_then_checkpoint
    return fired


def test_checkpoint_between_append_and_stamp_of_a_dirty_page_keeps_the_change():
    db = build()
    fired = checkpoint_inside_first_page_append(db)
    with db.transaction() as txn:
        db.insert(txn, "t", {"id": ROWS, "v": "raced"})
    assert fired
    db.crash()
    db.restart()
    with db.transaction() as txn:
        rows = {row["id"] for _, row in db.scan(txn, "t", "by_id")}
    assert rows == set(range(ROWS + 1))
    assert db.verify_indexes() == {}
    report = check_log(db.log)
    assert report.ok, report.format()
    db.close()


def test_checkpoint_between_append_and_stamp_of_a_clean_page_keeps_the_change():
    db = build()
    db.flush_all_pages()
    db.checkpoint()
    fired = checkpoint_inside_first_page_append(db)
    with db.transaction() as txn:
        db.insert(txn, "t", {"id": ROWS, "v": "raced"})
    assert fired
    db.crash()
    db.restart()
    with db.transaction() as txn:
        rows = {row["id"] for _, row in db.scan(txn, "t", "by_id")}
    assert rows == set(range(ROWS + 1))
    assert db.verify_indexes() == {}
    db.close()
