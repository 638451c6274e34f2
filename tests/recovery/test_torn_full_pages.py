"""Torn writes of *full* page images.

Struct-packed images are compact, so a page frame is mostly zero
padding and a sector split that lands in the padding is no tear at all
(``DiskManager.write`` stores it as a completed write).  A full leaf or
heap page still spans several sectors; a split at an inner sector
boundary of its body must be detected on read and rebuilt at restart.
"""

from __future__ import annotations

import pytest

from repro.btree.node import IndexPage
from repro.common.config import DatabaseConfig
from repro.common.errors import CorruptPageError
from repro.common.keys import decode_int_key
from repro.data.heap import HeapPage
from repro.db import Database
from repro.storage.disk import PAGE_HEADER, SECTOR_SIZE
from repro.storage.faults import FaultInjector, FaultPlan

PAGE_SIZE = 2048
#: Capacity charge of one integer key in a leaf.
ENTRY = 28


class ChosenTears(FaultInjector):
    """Tears exactly the writes named in ``tears`` (page id → mode and
    split), once each; every other write is atomic."""

    def __init__(self) -> None:
        super().__init__(FaultPlan())
        self.tears: dict[int, tuple[str, int]] = {}

    def plan_tear(self, page_id: int, n_sectors: int) -> tuple[str, int] | None:
        return self.tears.pop(page_id, None)


def fix(db: Database, page_id: int):
    page = db.buffer.fix(page_id)
    db.buffer.unfix(page_id)
    return page


def rightmost_leaf(db: Database) -> IndexPage:
    page = fix(db, db.tables["t"].indexes["by_id"].root_page_id)
    while not page.is_leaf:
        page = fix(db, page.child_ids[-1])
    return page


def inner_split(before: bytes, after: bytes) -> int:
    """The last sector boundary at or before the last byte in which the
    framed images differ: a tear there, either way round, mixes the two
    images detectably."""
    last = max(i for i, (a, b) in enumerate(zip(before, after)) if a != b)
    split = (PAGE_HEADER.size + last) // SECTOR_SIZE
    assert split >= 2, "the tear lands past the first two sectors of a full image"
    return split


def rows(db: Database) -> dict[int, str]:
    with db.transaction() as txn:
        return {row["id"]: row["v"] for _, row in db.scan(txn, "t", "by_id")}


@pytest.mark.parametrize(
    "leaf_mode,heap_mode", [("prefix", "suffix"), ("suffix", "prefix")]
)
def test_full_leaf_and_heap_torn_at_an_inner_sector(leaf_mode, heap_mode):
    injector = ChosenTears()
    db = Database(
        DatabaseConfig(page_size=PAGE_SIZE, buffer_pool_pages=64),
        fault_injector=injector,
    )
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    # Ascending keys fill the rightmost leaf until it splits: stop when
    # it has room for less than two more keys.
    n = 0
    while n < 100 or rightmost_leaf(db).used_size() <= PAGE_SIZE - 2 * ENTRY:
        with db.transaction() as txn:
            db.insert(txn, "t", {"id": n, "v": f"value-{n:04d}"})
        n += 1
    db.flush_all_pages()
    leaf = rightmost_leaf(db)

    # A key on that leaf whose row sits in the last third of a full,
    # older heap page.
    heap_ids = db.tables["t"].heap.page_ids
    for victim in leaf.keys:
        heap_page = fix(db, victim.rid.page_id)
        if (
            heap_page.page_id != heap_ids[-1]
            and victim.rid.slot >= len(heap_page.slots) * 2 // 3
        ):
            break
    else:  # pragma: no cover - the data layout above guarantees one
        pytest.fail("no victim row on a full heap page")
    assert isinstance(heap_page, HeapPage)
    victim_id = decode_int_key(victim.value)
    leaf_before, heap_before = leaf.to_bytes(), heap_page.to_bytes()

    with db.transaction() as txn:
        db.delete_by_key(txn, "t", "by_id", victim_id)
    injector.tears = {
        leaf.page_id: (leaf_mode, inner_split(leaf_before, leaf.to_bytes())),
        heap_page.page_id: (heap_mode, inner_split(heap_before, heap_page.to_bytes())),
    }
    db.flush_all_pages()
    assert injector.tears == {}, "both writes were planned torn"
    db.crash()

    for page_id in (leaf.page_id, heap_page.page_id):
        with pytest.raises(CorruptPageError):
            db.disk.read(page_id)

    report = db.restart()
    assert report.scrub.pages_rebuilt == 2
    expected = {i: f"value-{i:04d}" for i in range(n) if i != victim_id}
    assert rows(db) == expected
    assert db.verify_indexes() == {}
    db.close()
