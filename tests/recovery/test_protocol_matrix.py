"""Crash-recovery shapes × locking protocols.

Recovery must be entirely independent of the locking protocol in use
(§3's logging and undo rules never consult the lock tables), including
mid-SMO crashes and mixed winner/loser shapes.
"""

import pytest

from repro.btree.protocol import COMPARED_PROTOCOLS
from repro.common.config import DatabaseConfig
from repro.common.errors import SimulatedCrash
from repro.db import Database


def make_db(protocol):
    db = Database(DatabaseConfig(page_size=768))
    db.create_table("t")
    db.create_index("t", "by_k", column="k", unique=True, protocol=protocol)
    txn = db.begin()
    for key in range(0, 120, 2):
        db.insert(txn, "t", {"k": key, "pad": "x" * 8})
    db.commit(txn)
    return db


def surviving_keys(db):
    txn = db.begin()
    keys = [r["k"] for _, r in db.scan(txn, "t", "by_k")]
    db.commit(txn)
    return keys


@pytest.mark.parametrize("protocol", COMPARED_PROTOCOLS)
class TestProtocolIndependentRecovery:
    def test_winner_loser_mix(self, protocol):
        db = make_db(protocol)
        winner = db.begin()
        db.insert(winner, "t", {"k": 1_000, "pad": "w"})
        db.commit(winner)
        loser = db.begin()
        db.insert(loser, "t", {"k": 2_000, "pad": "l"})
        db.delete_by_key(loser, "t", "by_k", 10)
        db.log.force()
        db.crash()
        db.restart()
        keys = surviving_keys(db)
        assert 1_000 in keys and 2_000 not in keys and 10 in keys
        assert db.verify_indexes() == {}

    def test_mid_split_crash(self, protocol):
        db = make_db(protocol)
        baseline = surviving_keys(db)
        db.failpoints.arm_crash("smo.split.after_leaf_level")
        txn = db.begin()
        try:
            for key in range(10_001, 10_400, 2):
                db.insert(txn, "t", {"k": key, "pad": "y" * 24})
            db.commit(txn)
            pytest.skip("split never triggered")
        except SimulatedCrash:
            pass
        db.log.force()
        db.crash()
        db.restart()
        assert surviving_keys(db) == baseline
        assert db.verify_indexes() == {}

    def test_mid_page_delete_crash(self, protocol):
        db = make_db(protocol)
        baseline = surviving_keys(db)
        db.failpoints.arm_crash("smo.pagedel.after_unchain")
        txn = db.begin()
        try:
            for key in range(0, 120, 2):
                db.delete_by_key(txn, "t", "by_k", key)
            db.commit(txn)
            pytest.skip("page delete never triggered")
        except SimulatedCrash:
            pass
        db.log.force()
        db.crash()
        db.restart()
        assert surviving_keys(db) == baseline
        assert db.verify_indexes() == {}

    def test_work_continues_after_recovery(self, protocol):
        db = make_db(protocol)
        db.crash()
        db.restart()
        txn = db.begin()
        db.insert(txn, "t", {"k": 5_000, "pad": "post"})
        db.commit(txn)
        assert 5_000 in surviving_keys(db)
        assert db.verify_indexes() == {}
