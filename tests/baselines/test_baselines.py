"""Baseline protocols: functional equivalence + locking differences.

All four protocols must produce identical *results* (they share the
index manager); they differ only in what they lock.  The comparative
claims (§1, §5) are asserted quantitatively.
"""

import pytest

from repro.btree.protocol import COMPARED_PROTOCOLS
from repro.btree.protocol import make_protocol
from repro.harness.workload import (
    WorkloadSpec,
    generate_operations,
    make_database,
    run_operations,
)


class TestProtocolFactory:
    def test_aliases(self):
        assert make_protocol("data_only").name == "aries_im_data_only"
        assert make_protocol("index_specific").name == "aries_im_index_specific"
        assert make_protocol("kvl").name == "aries_kvl"
        assert make_protocol("system_r").name == "system_r_style"

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            make_protocol("two-phase-vibes")

    def test_all_compared_protocols_constructible(self):
        for name in COMPARED_PROTOCOLS:
            assert make_protocol(name).name == name


class TestFunctionalEquivalence:
    @pytest.mark.parametrize("protocol", COMPARED_PROTOCOLS)
    def test_same_results_any_protocol(self, protocol):
        spec = WorkloadSpec(n_initial=150, key_space=1500, seed=11)
        db = make_database(spec, protocol=protocol)
        ops = generate_operations(spec, 120)
        result = run_operations(db, spec, ops, abort_fraction=0.2)
        assert result.committed + result.rolled_back > 0
        assert db.verify_indexes() == {}
        txn = db.begin()
        keys = [r["k"] for _, r in db.scan(txn, "t", "by_k")]
        db.commit(txn)
        assert keys == sorted(keys)

    def test_final_states_identical_across_protocols(self):
        spec = WorkloadSpec(n_initial=100, key_space=1000, seed=23)
        ops = generate_operations(spec, 100)
        states = {}
        for protocol in COMPARED_PROTOCOLS:
            db = make_database(spec, protocol=protocol)
            run_operations(db, spec, ops, abort_fraction=0.0)
            txn = db.begin()
            states[protocol] = [r["k"] for _, r in db.scan(txn, "t", "by_k")]
            db.commit(txn)
        baseline = states[COMPARED_PROTOCOLS[0]]
        for protocol, state in states.items():
            assert state == baseline, protocol


class TestLockVolume:
    def count_requests(self, protocol):
        spec = WorkloadSpec(n_initial=100, key_space=1000, seed=31)
        db = make_database(spec, protocol=protocol)
        ops = generate_operations(spec, 150)
        before = db.stats.snapshot()
        run_operations(db, spec, ops)
        delta = db.stats.diff(before)
        return sum(v for k, v in delta.items() if k.startswith("lock.requests."))

    def test_data_only_requests_fewest_locks(self):
        counts = {p: self.count_requests(p) for p in COMPARED_PROTOCOLS}
        assert counts["aries_im_data_only"] == min(counts.values())
        assert counts["system_r_style"] >= counts["aries_im_data_only"]

    def test_crash_recovery_protocol_independent(self):
        """Recovery never consults the locking protocol."""
        for protocol in COMPARED_PROTOCOLS:
            spec = WorkloadSpec(n_initial=60, key_space=600, seed=7)
            db = make_database(spec, protocol=protocol)
            txn = db.begin()
            db.insert(txn, "t", {"k": 9999, "pad": "x"})
            db.log.force()
            db.crash()
            db.restart()
            check = db.begin()
            assert db.fetch(check, "t", "by_k", 9999) is None
            db.commit(check)
            assert db.verify_indexes() == {}
