"""Per-record WAL framing and corrupt/torn tail repair."""

import pytest

from repro.codec.values import (
    RECORD_FRAME,
    frame_record,
    unframe_record,
)
from repro.common.errors import CorruptLogError, TruncatedLogError
from repro.wal.log import LogManager
from repro.wal.records import update_record


def rec(txn_id=1, op="op", page=1):
    return update_record(txn_id, "heap", op, page, {"n": 1})


class TestRecordFraming:
    def test_roundtrip(self):
        body = b"payload bytes"
        framed = frame_record(body)
        recovered, end = unframe_record(framed)
        assert recovered == body
        assert end == len(framed)

    def test_roundtrip_at_offset(self):
        framed = b"junk" + frame_record(b"abc")
        body, end = unframe_record(framed, offset=4)
        assert body == b"abc"
        assert end == len(framed)

    def test_truncated_header(self):
        framed = frame_record(b"abcdef")
        with pytest.raises(TruncatedLogError):
            unframe_record(framed[: RECORD_FRAME.size - 1])

    def test_truncated_body(self):
        framed = frame_record(b"abcdef")
        with pytest.raises(TruncatedLogError):
            unframe_record(framed[:-1])

    def test_corrupt_body_fails_crc(self):
        framed = bytearray(frame_record(b"abcdef"))
        framed[-1] ^= 0xFF
        with pytest.raises(CorruptLogError):
            unframe_record(bytes(framed))

    def test_truncated_is_a_corrupt_log_error(self):
        # Callers that only care about "the stream ends here" can catch
        # the broader class.
        assert issubclass(TruncatedLogError, CorruptLogError)


class TestTornTailCrash:
    def build_log(self, forced=3, unforced=2):
        log = LogManager()
        for i in range(forced):
            log.append(rec(op=f"forced{i}"))
        log.force()
        for i in range(unforced):
            log.append(rec(op=f"unforced{i}"))
        return log

    def test_plain_crash_drops_all_unforced(self):
        log = self.build_log()
        log.crash()
        assert [r.op for r in log.records()] == [
            "forced0",
            "forced1",
            "forced2",
        ]
        assert log.unforced_bytes == 0

    def test_partial_tail_cuts_a_record_mid_frame(self):
        log = self.build_log()
        unforced = log.unforced_bytes
        log.crash(keep_partial_tail=unforced - 3)  # last record torn
        ops = [r.op for r in log.records()]
        # Iteration stops cleanly at the torn frame: the first unforced
        # record survived whole, the second is cut.
        assert ops == ["forced0", "forced1", "forced2", "unforced0"]

    def test_partial_tail_covering_whole_records_keeps_them(self):
        log = self.build_log()
        log.crash(keep_partial_tail=log.unforced_bytes)
        ops = [r.op for r in log.records()]
        assert ops[-1] == "unforced1"

    def test_repair_tail_discards_the_torn_frame(self):
        log = self.build_log()
        log.crash(keep_partial_tail=log.unforced_bytes - 3)
        dropped = log.repair_tail()
        assert dropped > 0
        assert [r.op for r in log.records()][-1] == "unforced0"
        # The repaired log is append-consistent: new records land right
        # after the surviving prefix and read back fine.
        lsn = log.append(rec(op="after-repair"))
        assert log.read(lsn).op == "after-repair"
        assert [r.op for r in log.records()][-1] == "after-repair"

    def test_repair_tail_noop_on_clean_log(self):
        log = self.build_log()
        log.force()
        assert log.repair_tail() == 0
        assert len(list(log.records())) == 5

    def test_bit_flip_mid_log_truncates_from_there(self):
        source = LogManager()
        first = source.append(rec(op="keep"))
        source.append(rec(op="damaged"))
        source.append(rec(op="after"))
        source.force()
        # Flip one byte inside the second record's frame of a copy of
        # the stream, and load the damaged copy.
        stream = bytearray(source.raw_slice(first))
        second_offset = len(source.read(first).to_bytes())
        stream[second_offset + RECORD_FRAME.size + 2] ^= 0xFF
        log = LogManager()
        log.load_stream(first, bytes(stream))
        assert [r.op for r in log.records()] == ["keep"]
        dropped = log.repair_tail()
        assert dropped > 0
        assert [r.op for r in log.records()] == ["keep"]

    def test_flushed_lsn_tracks_surviving_bytes(self):
        log = self.build_log()
        log.crash(keep_partial_tail=log.unforced_bytes - 3)
        # Whatever physically survived the crash is durable.
        assert log.unforced_bytes == 0
        log.repair_tail()
        assert log.unforced_bytes == 0
