"""Compact-header log record bodies: round trips of every header shape,
header-only decode, truncation, rejection of bodies that are not
records in this layout (the previous fixed-header one included), and
the pinned size of the records a write workload logs most."""

import itertools
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.codec.values import RECORD_FRAME, encode_value, frame_record
from repro.common.errors import CorruptLogError, WALError
from repro.common.rid import RID
from repro.wal.records import (
    RM_HEAP,
    RM_TXN,
    LogRecord,
    RecordKind,
    header_from_bytes,
)
from tests.conftest import build_db
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
    # Frame, kind and flags bytes, and the transaction id: a first
    # COMMIT stores no other field and no name.
    assert len(commit.to_bytes()) == RECORD_FRAME.size + 2 + 8


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


# -- every header shape ------------------------------------------------------

#: Each optional field: absent, or present with a value whose encoding
#: is not all zeros.
_OPTIONAL = {
    "txn_id": (0, 7),
    "prev_lsn": (0, 2**40 + 3),
    "page_id": (None, 0, 2**32 - 1),
    "prev_page_lsn": (0, 99),
    "undo_next_lsn": (None, 0, 12),
}
#: The three ways a record names its resource manager and op: the
#: transaction-state pair (no bytes), a pair from the code table, and a
#: pair spelled out.
_NAMES = ((RM_TXN, ""), (RM_HEAP, "insert"), ("custom", "op-é"))


def shapes():
    keys = list(_OPTIONAL)
    for values_ in itertools.product(*_OPTIONAL.values()):
        for (rm, op), undoable in itertools.product(_NAMES, (False, True)):
            yield dict(zip(keys, values_), rm=rm, op=op, undoable=undoable)


def test_every_kind_and_shape_round_trips():
    count = 0
    for kind in RecordKind:
        for fields in shapes():
            for payload in ({}, {"rid": RID(3, 4)}):
                record = LogRecord(kind=kind, payload=payload, **fields)
                framed = record.to_bytes()
                loaded, end = LogRecord.from_bytes(framed, 0, lsn=5)
                record.lsn = 5
                assert (loaded, end) == (record, len(framed))
                header, _ = header_from_bytes(memoryview(framed), 0, lsn=5)
                assert header[1:] == (
                    kind, record.txn_id, record.prev_lsn, record.rm, record.op,
                    record.page_id, record.prev_page_lsn, record.undo_next_lsn,
                    record.undoable,
                )
                count += 1
    # Kinds × optional fields × names × undoable × payload.
    assert count == len(RecordKind) * (2 * 2 * 3 * 2 * 3) * 3 * 2 * 2


def test_absent_fields_take_no_bytes():
    bare = dict(kind=RecordKind.UPDATE, txn_id=0, rm=RM_TXN, op="")
    assert len(LogRecord(**bare).to_bytes()) == RECORD_FRAME.size + 2
    widths = {"txn_id": 8, "prev_lsn": 8, "page_id": 4, "prev_page_lsn": 8,
              "undo_next_lsn": 8}
    for name, width in widths.items():
        record = LogRecord(**{**bare, name: 1})
        assert len(record.to_bytes()) == RECORD_FRAME.size + 2 + width, name
    coded = LogRecord(kind=RecordKind.UPDATE, txn_id=0, rm=RM_HEAP, op="insert")
    assert len(coded.to_bytes()) == RECORD_FRAME.size + 2 + 1


def test_every_shape_cut_short_is_refused():
    """A frame cut at any byte is a torn tail; a body cut at any byte
    and framed anew (CRC-valid) is no record.  Neither ever parses."""
    for fields in shapes():
        record = LogRecord(kind=RecordKind.CLR, **fields)
        framed = record.to_bytes()
        body = framed[RECORD_FRAME.size :]
        for cut in range(len(framed)):
            with pytest.raises(CorruptLogError):
                LogRecord.from_bytes(framed[:cut])
            with pytest.raises(CorruptLogError):
                header_from_bytes(framed[:cut])
        for cut in range(len(body)):
            reframed = frame_record(body[:cut])
            with pytest.raises(WALError):
                LogRecord.from_bytes(reframed)
            with pytest.raises(WALError):
                header_from_bytes(reframed)


def _fixed_header_body(kind_code, flags=1, txn_id=1, payload=b""):
    """A body in the previous layout: a 38-byte struct header, then
    ``rm`` and ``op`` as length-prefixed strings, then the payload."""
    head = struct.pack(">BBQQIQQ", kind_code, flags, txn_id, 0, 0, 0, 0)
    return head + b"\x04heap\x06insert" + payload


def test_previous_fixed_header_layout_is_refused_by_name():
    for kind_code in range(1, len(RecordKind) + 1):
        old = frame_record(
            _fixed_header_body(kind_code, payload=encode_value({"rid": RID(1, 2)}))
        )
        for decode in (LogRecord.from_bytes, header_from_bytes):
            with pytest.raises(WALError, match="previous fixed-header layout") as info:
                decode(old)
            assert not isinstance(info.value, CorruptLogError)


def test_unknown_op_code_and_kind_are_refused():
    framed = bytearray(LogRecord(kind=RecordKind.UPDATE, txn_id=1, rm=RM_HEAP,
                                 op="insert").to_bytes())
    body = framed[RECORD_FRAME.size :]
    bad_op = bytes(body[:-1]) + b"\xff"
    with pytest.raises(WALError, match="malformed"):
        LogRecord.from_bytes(frame_record(bad_op))
    bad_kind = b"\x7f" + bytes(body[1:])
    with pytest.raises(WALError, match="malformed"):
        LogRecord.from_bytes(frame_record(bad_kind))


# -- what a live database logs -------------------------------------------------


def test_logged_record_sizes_are_pinned():
    """The records a write workload logs most, byte for byte, so log
    volume cannot grow silently: a COMMIT is its transaction id and
    predecessor; a heap delete carries no row image."""
    db = build_db()
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    with db.transaction() as txn:
        db.insert(txn, "t", {"id": 1, "val": "v" * 16})
    with db.transaction() as txn:
        db.insert(txn, "t", {"id": 2, "val": "v" * 16})
    with db.transaction() as txn:
        db.delete_by_key(txn, "t", "by_id", 1)
    sizes = {}
    for record in db.log.records():
        name = f"{record.rm}.{record.op}" if record.op else record.kind.value
        sizes.setdefault(name, set()).add(len(record.to_bytes()))
    assert sizes["commit"] == {26}
    # A transaction's first record has no predecessor: 8 bytes fewer.
    assert sizes["heap.insert"] == {111, 119}
    assert sizes["heap.delete"] == {58}
    assert sizes["btree.insert_key"] == {91}
    assert "end" not in sizes
    db.close()
