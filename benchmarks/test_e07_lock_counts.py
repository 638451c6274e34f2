"""E7 — locks acquired per operation, across protocols.

The paper's headline efficiency claim (§1, §5): data-only locking
"reduces the number of locks for single-record operations".  This
harness measures lock requests for single-record fetch / insert /
delete and a 10-key range scan, for each protocol, on both a
single-index table and a three-index table (where the per-index
current-key locks of the index-specific protocols multiply but the one
record lock of data-only locking does not).

Expected shape: ARIES/IM data-only ≤ every alternative, with the gap
widening as indexes are added; System R-style holds everything to
commit (most held locks).
"""

from repro.common.config import DatabaseConfig
from repro.db import Database
from repro.btree.protocol import COMPARED_PROTOCOLS
from repro.harness.report import format_table

from _common import write_result


def build(protocol: str, extra_indexes: int) -> Database:
    db = Database(DatabaseConfig())
    db.create_table("t")
    db.create_index("t", "by_a", column="a", unique=True, protocol=protocol)
    for i in range(extra_indexes):
        db.create_index("t", f"by_x{i}", column=f"x{i}", unique=False, protocol=protocol)
    txn = db.begin()
    for key in range(0, 400, 2):
        row = {"a": key, "pad": "v"}
        for i in range(extra_indexes):
            row[f"x{i}"] = key * (i + 2)
        db.insert(txn, "t", row)
    db.commit(txn)
    return db


def lock_requests_during(db, fn) -> int:
    before = db.stats.snapshot()
    txn = db.begin()
    fn(txn)
    db.commit(txn)
    delta = db.stats.diff(before)
    return sum(v for k, v in delta.items() if k.startswith("lock.requests."))


def measure(protocol: str, extra_indexes: int) -> dict:
    db = build(protocol, extra_indexes)
    row = {"a": 101, "pad": "v"}
    for i in range(extra_indexes):
        row[f"x{i}"] = 101 * (i + 2)
    return {
        "fetch": lock_requests_during(db, lambda t: db.fetch(t, "t", "by_a", 100)),
        "insert": lock_requests_during(db, lambda t: db.insert(t, "t", dict(row))),
        "delete": lock_requests_during(
            db, lambda t: db.delete_by_key(t, "t", "by_a", 101)
        ),
        "scan10": lock_requests_during(
            db, lambda t: sum(1 for _ in db.scan(t, "t", "by_a", low=200, high=218))
        ),
    }


def test_e07_lock_counts(benchmark):
    def run():
        out = {}
        for extra in (0, 2):
            for protocol in COMPARED_PROTOCOLS:
                out[(protocol, extra)] = measure(protocol, extra)
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    sections = []
    for extra in (0, 2):
        rows = [
            (
                protocol,
                results[(protocol, extra)]["fetch"],
                results[(protocol, extra)]["insert"],
                results[(protocol, extra)]["delete"],
                results[(protocol, extra)]["scan10"],
            )
            for protocol in COMPARED_PROTOCOLS
        ]
        sections.append(
            format_table(
                ["protocol", "fetch", "insert", "delete", "scan-10"],
                rows,
                title=f"E7 — lock requests per operation ({1 + extra} index(es))",
            )
        )
    write_result("e07_lock_counts", "\n\n".join(sections))

    for extra in (0, 2):
        data_only = results[("aries_im_data_only", extra)]
        for other in COMPARED_PROTOCOLS[1:]:
            for op in ("fetch", "insert", "delete", "scan10"):
                assert data_only[op] <= results[(other, extra)][op], (
                    f"{other}/{op}/indexes+{extra}"
                )
    # The multi-index gap: data-only's insert cost grows only by the
    # next-key locks; index-specific adds current-key locks per index.
    gap_one = (
        results[("aries_im_index_specific", 0)]["insert"]
        - results[("aries_im_data_only", 0)]["insert"]
    )
    gap_three = (
        results[("aries_im_index_specific", 2)]["insert"]
        - results[("aries_im_data_only", 2)]["insert"]
    )
    assert gap_three > gap_one, "the data-only advantage widens with more indexes"
