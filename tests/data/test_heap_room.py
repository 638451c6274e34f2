"""The maintained heap free-space bookkeeping places every insert exactly
where a full newest-first scan of measured pages would, across inserts,
deletes, rollbacks, purges and restarts."""

import random
import types

import pytest

from repro.data.heap import _SLOT_OVERHEAD, HeapPage
from repro.storage.page import PAGE_OVERHEAD
from tests.conftest import build_db


def walked_size(page: HeapPage) -> int:
    """The used size recomputed by walking every slot."""
    return PAGE_OVERHEAD + sum(
        _SLOT_OVERHEAD + (0 if slot is None else len(slot[0])) for slot in page.slots
    )


def reference_find_page_with_room(heap, txn, data):
    """The scan the free-space map replaces: fix every page newest
    first and measure it by walking its slots."""
    page_size = heap._ctx.config.page_size
    for page_id in reversed(heap.page_ids):
        page = heap._fix_heap_page(page_id)
        if walked_size(page) + _SLOT_OVERHEAD + len(data) <= page_size:
            return page
        heap._ctx.buffer.unfix(page_id)
    return heap._format_new_page(txn)


def new_db(reference: bool):
    # A pool that never evicts: the reference scan fixes more pages, and
    # a different eviction order would change what a crash keeps.
    db = build_db(page_size=1024, buffer_pool_pages=512)
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    if reference:
        heap = db.tables["t"].heap
        heap._find_page_with_room = types.MethodType(
            reference_find_page_with_room, heap
        )
    return db


def check_sizes(db):
    heap = db.tables["t"].heap
    for page_id in heap.page_ids:
        page = heap._fix_heap_page(page_id)
        try:
            assert page.used_size() == walked_size(page), page_id
        finally:
            db.buffer.unfix(page_id)


def step(db, rng, live, next_key):
    """One random action; returns the RIDs it inserted."""
    action = rng.choice(("insert", "insert", "rollback", "delete", "purge", "restart"))
    rids = []
    if action in ("insert", "rollback"):
        txn = db.begin()
        for _ in range(rng.randint(1, 6)):
            key = next_key[0]
            next_key[0] += 1
            rids.append(db.insert(txn, "t", {"id": key, "v": "x" * rng.randint(0, 300)}))
            if action == "insert":
                live.append(key)
        if action == "insert":
            db.commit(txn)
        else:
            db.rollback(txn)
    elif action == "delete" and live:
        txn = db.begin()
        for key in rng.sample(live, min(len(live), rng.randint(1, 5))):
            db.delete_by_key(txn, "t", "by_id", key)
            live.remove(key)
        db.commit(txn)
    elif action == "purge":
        db.mvcc_gc(purge=True)
    elif action == "restart":
        # Crash with a transaction in flight: restart undoes its inserts
        # when its records were forced and loses them when they were not.
        txn = db.begin()
        for _ in range(rng.randint(1, 6)):
            key = next_key[0]
            next_key[0] += 1
            rids.append(db.insert(txn, "t", {"id": key, "v": "x" * rng.randint(0, 300)}))
        if rng.random() < 0.5:
            db.log.force()
        db.crash()
        db.restart()
    return action, rids


@pytest.mark.parametrize("seed", range(4))
def test_same_rids_as_the_full_scan(seed):
    dbs = [new_db(reference=False), new_db(reference=True)]
    rngs = [random.Random(seed), random.Random(seed)]
    lives = [[], []]
    keys = [[0], [0]]
    actions = set()
    for _ in range(120):
        (action, got), (_, expected) = (
            step(db, rng, live, key)
            for db, rng, live, key in zip(dbs, rngs, lives, keys)
        )
        actions.add(action)
        assert got == expected, action
        for db in dbs:
            check_sizes(db)
    assert actions == {"insert", "rollback", "delete", "purge", "restart"}
    formatted = [db.stats.get("heap.pages_formatted") for db in dbs]
    assert formatted[0] == formatted[1]
    for db in dbs:
        db.close()
