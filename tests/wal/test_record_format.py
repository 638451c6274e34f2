"""Fixed-header log record bodies: round trips, header-only decode, and
rejection of bodies that are not records in this layout."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.codec.values import RECORD_FRAME, encode_value, frame_record
from repro.common.errors import CorruptLogError, WALError
from repro.wal.records import (
    LogRecord,
    RecordKind,
    header_from_bytes,
)
from tests.wal.test_serialization import _listify, values

u64 = st.integers(min_value=0, max_value=2**64 - 1)
names = st.text(max_size=20).filter(lambda s: len(s.encode("utf-8")) <= 255)
payloads = st.one_of(
    st.just({}),
    st.dictionaries(st.text(max_size=10), values, max_size=6),
)

records = st.builds(
    LogRecord,
    kind=st.sampled_from(list(RecordKind)),
    txn_id=u64,
    prev_lsn=u64,
    rm=names,
    op=names,
    page_id=st.none() | st.integers(min_value=0, max_value=2**32 - 1),
    prev_page_lsn=u64,
    payload=payloads,
    undo_next_lsn=st.none() | u64,
    undoable=st.booleans(),
)


@given(records, u64)
def test_record_roundtrip(record, lsn):
    framed = record.to_bytes()
    loaded, end = LogRecord.from_bytes(memoryview(framed), 0, lsn=lsn)
    assert end == len(framed)
    record.lsn = lsn
    record.payload = _listify(record.payload)
    assert loaded == record


@given(records)
def test_header_matches_record(record):
    framed = b"xx" + record.to_bytes()
    header, end = header_from_bytes(framed, 2, lsn=99)
    assert end == len(framed)
    assert header == (
        99,
        record.kind,
        record.txn_id,
        record.prev_lsn,
        record.rm,
        record.op,
        record.page_id,
        record.prev_page_lsn,
        record.undo_next_lsn,
        record.undoable,
    )
    assert header.is_redoable == record.is_redoable


def test_empty_payload_adds_no_bytes():
    commit = LogRecord(kind=RecordKind.COMMIT, txn_id=1)
    update = LogRecord(kind=RecordKind.COMMIT, txn_id=1, payload={"k": 1})
    assert len(update.to_bytes()) - len(commit.to_bytes()) == len(
        encode_value({"k": 1})
    )
    # Frame, struct header, and "txn" / "" as length-prefixed names.
    assert len(commit.to_bytes()) == RECORD_FRAME.size + 38 + 4 + 1


def test_tagged_dict_body_is_rejected_not_misparsed():
    old = frame_record(encode_value({"kind": "commit", "txn_id": 1}))
    with pytest.raises(WALError) as info:
        LogRecord.from_bytes(old)
    assert not isinstance(info.value, CorruptLogError)


def test_names_longer_than_255_bytes_are_rejected():
    record = LogRecord(kind=RecordKind.UPDATE, txn_id=1, op="é" * 128)
    with pytest.raises(WALError):
        record.to_bytes()


def test_negative_field_is_rejected():
    with pytest.raises(WALError):
        LogRecord(kind=RecordKind.COMMIT, txn_id=-1).to_bytes()
