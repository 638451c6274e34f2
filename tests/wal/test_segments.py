"""The segmented log: frames that meet a segment seal, torn tails and
truncation across seals, and the memory bound of a log that keeps no
per-record objects."""

import tracemalloc

import pytest

from repro.codec.values import RECORD_FRAME
from repro.wal import log as log_module
from repro.wal.log import LogManager
from repro.wal.records import LogRecord, RecordKind, update_record


@pytest.fixture
def small_segments(monkeypatch):
    """Segments of 150 bytes: two or three ~65-byte frames each."""
    monkeypatch.setattr(log_module, "SEGMENT_BYTES", 150)


def rec(i):
    return update_record(1, "heap", f"op{i}", i % 3, {"n": i, "pad": "x" * (i % 7)})


def build(count=12, force=True):
    log = LogManager()
    lsns = [log.append(rec(i)) for i in range(count)]
    if force:
        log.force()
    return log, lsns


def ops(log, from_lsn=1):
    return [r.op for r in log.records(from_lsn)]


class TestFramesAtSeals:
    def test_every_reader_sees_every_frame(self, small_segments):
        log, lsns = build()
        assert log.sealed_segments >= 4
        assert ops(log) == [f"op{i}" for i in range(12)]
        assert [h.lsn for h in log.record_headers()] == lsns
        for i, lsn in enumerate(lsns):
            assert log.read(lsn).op == f"op{i}"
            assert ops(log, lsn) == [f"op{j}" for j in range(i, 12)]

    def test_force_target_is_the_frame_end(self, small_segments):
        log, lsns = build(force=False)
        for lsn, after in zip(lsns, lsns[1:]):
            assert log.force_target(lsn) == after - 1

    def test_raw_slice_and_append_raw_cross_seals(self, small_segments):
        log, lsns = build()
        stream = log.raw_slice(1)
        assert len(stream) == log.end_lsn - 1
        # Every frame-aligned slice equals the same bytes of the stream.
        for a in lsns:
            for b in lsns[lsns.index(a) :] + [log.end_lsn]:
                assert log.raw_slice(a, b) == stream[a - 1 : b - 1]
        # A standby fed in three uneven chunks ends up byte-identical.
        standby = LogManager()
        cuts = [1, lsns[5], lsns[6], log.end_lsn]
        for a, b in zip(cuts, cuts[1:]):
            standby.append_raw(a, log.raw_slice(a, b))
        assert standby.raw_slice(1) == stream
        assert ops(standby) == ops(log)
        assert standby.sealed_segments >= 4

    def test_load_stream_splits_at_frame_boundaries(self, small_segments):
        log, _ = build()
        copy = LogManager()
        copy.load_stream(1, log.raw_slice(1))
        assert copy.sealed_segments == log.sealed_segments
        assert ops(copy) == ops(log)
        assert copy.repair_tail() == 0

    def test_repair_tail_at_a_damaged_frame_in_a_sealed_segment(self, small_segments):
        log, lsns = build()
        stream = bytearray(log.raw_slice(1))
        stream[lsns[4] - 1 + RECORD_FRAME.size + 3] ^= 0xFF
        damaged = LogManager()
        damaged.load_stream(1, bytes(stream))
        assert ops(damaged) == [f"op{i}" for i in range(4)]
        assert damaged.repair_tail() == len(stream) - (lsns[4] - 1)
        assert damaged.end_lsn == lsns[4]
        lsn = damaged.append(rec(99))
        assert lsn == lsns[4]
        assert ops(damaged)[-1] == "op99"
        assert damaged.read(lsn).op == "op99"


class TestCrashAcrossSeals:
    def test_torn_tail_inside_a_sealed_segment(self, small_segments):
        log, lsns = build(count=3)
        unforced = [log.append(rec(i)) for i in range(3, 12)]
        sealed = log.sealed_segments
        # Keep the forced prefix plus part of record 8, which lies in a
        # segment that was sealed after the force.
        keep = unforced[5] - 1 + 5 - log.flushed_lsn
        log.crash(keep_partial_tail=keep)
        assert log.sealed_segments < sealed
        assert ops(log) == [f"op{i}" for i in range(8)]
        assert log.unforced_bytes == 0
        dropped = log.repair_tail()
        assert dropped == 5
        assert log.end_lsn == unforced[5]
        assert log.append(rec(50)) == unforced[5]
        assert ops(log)[-2:] == ["op7", "op50"]

    def test_crash_at_a_seal_boundary(self, small_segments):
        log, lsns = build(count=2)
        for i in range(2, 12):
            log.append(rec(i))
        log.crash()
        assert ops(log) == ["op0", "op1"]
        assert log.end_lsn == lsns[1] + len(rec(1).to_bytes())
        for i in range(2, 12):
            log.append(rec(i))
        assert ops(log) == [f"op{i}" for i in range(12)]


class TestTruncationAcrossSeals:
    def test_truncate_inside_a_segment_with_an_archiver(self, small_segments):
        log, lsns = build()
        stream = log.raw_slice(1)
        archived = []
        log.set_archiver(lambda first, data: archived.append((first, data)))
        reclaimed = log.truncate_prefix(lsns[5])
        assert reclaimed == lsns[5] - 1
        assert archived == [(1, stream[: lsns[5] - 1])]
        assert log.truncation_point == lsns[5]
        assert ops(log) == [f"op{i}" for i in range(5, 12)]
        assert log.raw_slice(lsns[5]) == stream[lsns[5] - 1 :]
        # A second truncation archives exactly the next range.
        log.truncate_prefix(lsns[9])
        assert archived[1] == (lsns[5], stream[lsns[5] - 1 : lsns[9] - 1])
        assert ops(log) == ["op9", "op10", "op11"]

    def test_truncate_into_the_open_segment(self, small_segments):
        log, lsns = build()
        log.truncate_prefix(lsns[11])
        assert log.sealed_segments == 0
        assert ops(log) == ["op11"]
        assert log.read(lsns[11]).op == "op11"


def test_memory_grows_by_the_log_bytes_only():
    """100k COMMIT records cost their bytes, not per-record objects."""
    log = LogManager()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for txn_id in range(100_000):
            log.append(LogRecord(kind=RecordKind.COMMIT, txn_id=txn_id))
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 1.5 * (log.end_lsn - 1)
    assert log.sealed_segments >= 1
