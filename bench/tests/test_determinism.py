"""The seed decides the inputs, and nothing else does."""

from __future__ import annotations

import random

import pytest

from bench.tests.conftest import run_bench
from bench.workloads import WORKLOADS, KeyModel, OpStream

#: Exact counts (per operation) that must repeat on a single-thread run.
COUNTS = (
    "locks.requests_per_op",
    "latch.acquisitions_per_op",
    "buffer.fixes_per_op",
    "disk.reads_per_op",
    "disk.writes_per_op",
    "btree.traversals_per_op",
    "wal.records_per_commit",
    "wal.bytes_per_record",
    "codec.bytes_encoded_per_op",
    "stats.incr_calls_per_op",
    "trace.spans_per_op",
)


@pytest.mark.parametrize("name", ["embedded_read", "embedded_write", "embedded_coldcache"])
def test_same_seed_gives_identical_counts(smoke_runs, name):
    first_last, first = smoke_runs[name, 0]
    again_last, again = run_bench(name, 0)
    assert again_last["attempted"] == first_last["attempted"]
    assert again["detail"].get("log_bytes_per_user_byte") == first["detail"].get(
        "log_bytes_per_user_byte"
    )
    traced = smoke_runs[name, 1][0]["metrics"]
    traced_again = run_bench(name, 1)[0]["metrics"]
    for count in COUNTS:
        assert traced_again[count]["value"] == traced[count]["value"], count


def test_a_different_seed_gives_different_keys():
    def first_ops(seed):
        model = KeyModel(iter(range(1000)), lambda k: k % 2 == 0)
        stream = OpStream(random.Random(seed), model, WORKLOADS["embedded_coldcache"].mix, 1000)
        return [stream.next()[:2] for _ in range(50)]

    assert first_ops(1) == first_ops(1)
    assert first_ops(1) != first_ops(2)
