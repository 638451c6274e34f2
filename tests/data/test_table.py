"""Table layer: rows, multi-index maintenance, scans, updates."""

import pytest

from repro.common.errors import KeyNotFoundError, UniqueKeyViolationError
from repro.common.rid import RID
from repro.data.table import decode_row, encode_row
from tests.conftest import build_db, populate


class TestRowCodec:
    def test_roundtrip(self):
        row = {"id": 7, "name": "x", "blob": b"\x00\x01", "flag": True, "n": None}
        assert decode_row(encode_row(row)) == row


class TestMultiIndex:
    def make_db(self):
        db = build_db()
        db.create_table("people")
        db.create_index("people", "by_id", column="id", unique=True)
        db.create_index("people", "by_name", column="name", unique=False)
        return db

    def test_insert_maintains_both_indexes(self):
        db = self.make_db()
        txn = db.begin()
        db.insert(txn, "people", {"id": 1, "name": "ada"})
        db.insert(txn, "people", {"id": 2, "name": "ada"})
        db.commit(txn)
        check = db.begin()
        assert db.fetch(check, "people", "by_id", 1)["name"] == "ada"
        names = [r["id"] for _, r in db.scan(check, "people", "by_name", low="ada", high="ada")]
        db.commit(check)
        assert sorted(names) == [1, 2]

    def test_nonunique_index_accepts_duplicates(self):
        db = self.make_db()
        txn = db.begin()
        for i in range(5):
            db.insert(txn, "people", {"id": i, "name": "dup"})
        db.commit(txn)
        check = db.begin()
        hits = list(db.scan(check, "people", "by_name", low="dup", high="dup"))
        db.commit(check)
        assert len(hits) == 5

    def test_delete_maintains_both_indexes(self):
        db = self.make_db()
        txn = db.begin()
        db.insert(txn, "people", {"id": 1, "name": "ada"})
        db.commit(txn)
        txn = db.begin()
        db.delete_by_key(txn, "people", "by_id", 1)
        db.commit(txn)
        check = db.begin()
        assert db.fetch(check, "people", "by_id", 1) is None
        assert list(db.scan(check, "people", "by_name", low="ada", high="ada")) == []
        db.commit(check)

    def test_update_replaces_row(self):
        db = self.make_db()
        txn = db.begin()
        rid = db.insert(txn, "people", {"id": 1, "name": "old"})
        db.commit(txn)
        txn = db.begin()
        new_rid = db.tables["people"].update(txn, rid, {"name": "new"})
        db.commit(txn)
        assert new_rid != rid
        check = db.begin()
        assert db.fetch(check, "people", "by_id", 1)["name"] == "new"
        assert list(db.scan(check, "people", "by_name", low="old", high="old")) == []
        db.commit(check)

    def test_index_backfill_on_create(self):
        db = build_db()
        db.create_table("people")
        txn = db.begin()
        for i in range(20):
            db.insert(txn, "people", {"id": i, "name": f"n{i % 3}"})
        db.commit(txn)
        db.create_index("people", "by_id", column="id", unique=True)
        check = db.begin()
        assert db.fetch(check, "people", "by_id", 13) is not None
        db.commit(check)


class TestScans:
    def test_range_bounds(self, populated_db):
        db = populated_db
        txn = db.begin()
        keys = [r["id"] for _, r in db.scan(txn, "t", "by_id", low=10, high=20)]
        db.commit(txn)
        assert keys == [10, 12, 14, 16, 18, 20]

    def test_exclusive_high(self, populated_db):
        db = populated_db
        txn = db.begin()
        keys = [
            r["id"]
            for _, r in db.scan(txn, "t", "by_id", low=10, high=20, high_comparison="<")
        ]
        db.commit(txn)
        assert keys == [10, 12, 14, 16, 18]

    def test_exclusive_low(self, populated_db):
        db = populated_db
        txn = db.begin()
        keys = [
            r["id"]
            for _, r in db.scan(txn, "t", "by_id", low=10, high=16, low_comparison=">")
        ]
        db.commit(txn)
        assert keys == [12, 14, 16]

    def test_unbounded_scan(self, populated_db):
        db = populated_db
        txn = db.begin()
        keys = [r["id"] for _, r in db.scan(txn, "t", "by_id")]
        db.commit(txn)
        assert keys == list(range(0, 400, 2))

    def test_empty_range(self, populated_db):
        db = populated_db
        txn = db.begin()
        assert list(db.scan(txn, "t", "by_id", low=11, high=11)) == []
        db.commit(txn)


class TestScanComparisons:
    """An unsupported comparison is refused with ValueError when the
    scan starts, before any latch or lock — on a range with keys and
    on an empty one, on the locking and the snapshot path alike."""

    @staticmethod
    def refused(db, txn, **bounds) -> None:
        before = db.stats.snapshot()
        with pytest.raises(ValueError, match="comparison"):
            list(db.scan(txn, "t", "by_id", **bounds))
        assert db.locks.lock_count(txn.txn_id) == 0
        changed = db.stats.diff(before)
        assert not [name for name in changed if name.startswith(("latch.", "lock."))]

    @pytest.mark.parametrize("high", [50, 1000], ids=["keys", "empty"])
    def test_bad_high_comparison(self, populated_db, high):
        db = populated_db
        low = 10 if high == 50 else 900
        txn = db.begin()
        self.refused(db, txn, low=low, high=high, high_comparison=">")
        db.commit(txn)

    @pytest.mark.parametrize("high", [50, 1000], ids=["keys", "empty"])
    def test_bad_low_comparison(self, populated_db, high):
        db = populated_db
        low = 10 if high == 50 else 900
        txn = db.begin()
        self.refused(db, txn, low=low, high=high, low_comparison="<")
        db.commit(txn)

    def test_bad_comparison_on_a_snapshot(self, populated_db):
        db = populated_db
        with db.snapshot() as txn:
            self.refused(db, txn, low=10, high=50, high_comparison=">")


class TestErrors:
    def test_unique_violation_across_transactions(self, table_db):
        populate(table_db, [5])
        txn = table_db.begin()
        with pytest.raises(UniqueKeyViolationError):
            table_db.insert(txn, "t", {"id": 5, "val": "dup"})
        table_db.rollback(txn)

    def test_delete_missing_key(self, table_db):
        txn = table_db.begin()
        with pytest.raises(KeyNotFoundError):
            table_db.delete_by_key(txn, "t", "by_id", 404)
        table_db.rollback(txn)

    def test_fetch_missing_key_returns_none(self, table_db):
        txn = table_db.begin()
        assert table_db.fetch(txn, "t", "by_id", 404) is None
        table_db.commit(txn)


class TestSlotBounds:
    """A slot number outside ``[0, slot count)`` names no record — a
    negative one must not index the slot list from its end — whether
    the page is in list form or still image-backed after a re-read.
    The table has no index, so nothing but the heap can refuse."""

    def make_db(self, reread: bool):
        db = build_db()
        db.create_table("t")
        rids = populate(db, range(3))
        if reread:
            db.flush_all_pages()
            db.checkpoint()
            db.crash()
            db.restart()
        return db, rids

    @pytest.mark.parametrize("reread", [False, True])
    def test_fetch_row_rejects_a_slot_out_of_range(self, reread):
        db, rids = self.make_db(reread)
        table = db.tables["t"]
        page_id = rids[2].page_id
        txn = db.begin()
        for slot in (-1, -3, 3):
            with pytest.raises(KeyNotFoundError):
                table.fetch_row(txn, RID(page_id, slot))
        db.commit(txn)

    @pytest.mark.parametrize("reread", [False, True])
    def test_delete_rejects_a_negative_slot(self, reread):
        db, rids = self.make_db(reread)
        table = db.tables["t"]
        txn = db.begin()
        with pytest.raises(KeyNotFoundError):
            table.delete(txn, RID(rids[2].page_id, -1))
        assert [table.fetch_row(txn, rid)["id"] for rid in rids.values()] == [0, 1, 2]
        db.commit(txn)
