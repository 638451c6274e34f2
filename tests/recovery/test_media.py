"""Page-oriented media recovery (§5, E12)."""

import pytest

from repro.common.errors import CorruptPageError, RecoveryError
from repro.recovery.media import recover_page, take_image_copy
from tests.conftest import build_db, populate


def make_db():
    db = build_db(page_size=768)
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    return db


def index_page_ids(db):
    tree = db.tables["t"].indexes["by_id"]
    out = []

    def walk(page_id):
        page = tree.fix_page(page_id, tree.ctx.incarnation)
        out.append(page_id)
        children = list(page.child_ids)
        db.buffer.unfix(page_id)
        for child in children:
            walk(child)

    walk(tree.root_page_id)
    return out


class TestImageCopy:
    def test_dump_then_damage_then_recover(self):
        db = make_db()
        populate(db, range(100))
        db.flush_all_pages()
        dump = take_image_copy(db)

        # More committed work after the dump.
        populate(db, range(100, 140))
        db.flush_all_pages()

        victim = index_page_ids(db)[1]
        db.disk.corrupt(victim)
        db.buffer.discard(victim)
        with pytest.raises(CorruptPageError):
            db.disk.read(victim)

        applied = recover_page(db, victim, dump)
        assert applied >= 0
        assert db.verify_indexes() == {}
        txn = db.begin()
        n = sum(1 for _ in db.scan(txn, "t", "by_id"))
        db.commit(txn)
        assert n == 140

    def test_recovery_applies_only_that_pages_records(self):
        db = make_db()
        populate(db, range(50))
        db.flush_all_pages()
        dump = take_image_copy(db)
        populate(db, range(50, 80))
        db.flush_all_pages()
        victim = index_page_ids(db)[-1]
        before = db.stats.snapshot()
        recover_page(db, victim, dump)
        delta = db.stats.diff(before)
        # One media recovery, one pass, page-filtered.
        assert delta.get("recovery.media_recoveries") == 1

    def test_page_not_in_dump_rejected(self):
        db = make_db()
        populate(db, range(10))
        db.flush_all_pages()
        dump = take_image_copy(db)
        with pytest.raises(RecoveryError):
            recover_page(db, 10_000, dump)

    def test_multiple_corrupt_pages_recovered_from_one_dump(self):
        db = make_db()
        populate(db, range(80))
        db.flush_all_pages()
        dump = take_image_copy(db)
        victims = index_page_ids(db)[1:4]
        for victim in victims:
            db.disk.corrupt(victim)
            db.buffer.discard(victim)
        for victim in victims:
            recover_page(db, victim, dump)
        assert db.verify_indexes() == {}
        txn = db.begin()
        n = sum(1 for _ in db.scan(txn, "t", "by_id"))
        db.commit(txn)
        assert n == 80

    def test_fuzzy_dump_with_dirty_buffers(self):
        """The dump may be taken while pages are dirty in the buffer:
        the recorded horizon covers the un-dumped changes."""
        db = make_db()
        populate(db, range(60))  # dirty, unflushed
        dump = take_image_copy(db)  # fuzzy: disk is stale
        db.flush_all_pages()
        populate(db, range(60, 90))
        db.flush_all_pages()
        victim = index_page_ids(db)[-1]
        db.disk.corrupt(victim)
        db.buffer.discard(victim)
        recover_page(db, victim, dump)
        assert db.verify_indexes() == {}
        txn = db.begin()
        n = sum(1 for _ in db.scan(txn, "t", "by_id"))
        db.commit(txn)
        assert n == 90


class TestRestartScrub:
    """Self-healing without a dump: the restart scrub pass rebuilds
    corrupt pages from the log."""

    def survivors(self, db):
        txn = db.begin()
        keys = {row["id"] for _, row in db.scan(txn, "t", "by_id")}
        db.commit(txn)
        return keys

    def test_multiple_corrupt_pages_rebuilt_at_restart(self):
        db = make_db()
        populate(db, range(60))
        db.flush_all_pages()
        for victim in index_page_ids(db)[1:4]:
            db.disk.corrupt(victim)
        db.crash()
        report = db.restart()
        assert report.scrub.pages_rebuilt == 3
        assert db.verify_indexes() == {}
        assert self.survivors(db) == set(range(60))

    def test_corrupt_page_in_dirty_page_table_at_crash(self):
        """The damaged page is re-dirtied after its last flush, so the
        reconstructed dirty page table names it: the scrub rebuild and
        the redo page-LSN comparison must compose, not double-apply."""
        db = make_db()
        populate(db, range(40))
        db.flush_all_pages()
        db.checkpoint()
        # New committed work re-dirties leaf pages (recLSNs in the DPT).
        populate(db, range(40, 60))
        on_disk_and_dirty = [
            page_id
            for page_id in index_page_ids(db)
            if page_id in db.buffer.dirty_page_table()
            and db.disk.contains(page_id)
        ]
        victim = on_disk_and_dirty[-1]
        db.disk.corrupt(victim)
        db.crash()
        report = db.restart()
        assert report.scrub.pages_rebuilt >= 1
        assert db.verify_indexes() == {}
        assert self.survivors(db) == set(range(60))
        # Idempotent: a second restart finds nothing left to heal.
        db.crash()
        second = db.restart()
        assert second.scrub.pages_rebuilt == 0
        assert self.survivors(db) == set(range(60))

    def test_every_page_corrupt_rebuilds_whole_database(self):
        """With the full log history intact, even total media damage is
        survivable: every page is rebuilt from its birth record on."""
        db = make_db()
        populate(db, range(30))
        db.flush_all_pages()
        page_count = len(db.disk.page_ids())
        for page_id in db.disk.page_ids():
            db.disk.corrupt(page_id)
        db.crash()
        report = db.restart()
        assert report.scrub.pages_rebuilt == page_count
        assert db.verify_indexes() == {}
        assert self.survivors(db) == set(range(30))
