"""Log record types.

One generic :class:`LogRecord` class carries every record; behaviour is
dispatched on ``(rm, op)`` through the resource-manager registry
(:mod:`repro.txn.rm`).  This mirrors real ARIES implementations, where
the log manager is oblivious to record semantics and each resource
manager (here: the heap and the B+-tree) interprets its own payloads.

Record categories (``kind``):

- ``UPDATE`` — undo-redo record written during forward processing *and*
  during the SMOs performed as part of undo (§3's documented exception:
  undo-time SMOs are logged with regular records so they themselves can
  be undone after a crash).
- ``CLR`` — redo-only compensation record written when an update is
  undone.  Carries ``undo_next_lsn`` pointing at the predecessor of the
  record just undone.
- ``DUMMY_CLR`` — the nested-top-action terminator (§1.2, Figure 9/10).
  Pure chain surgery: no page, no redo work.
- ``COMMIT`` / ``ROLLBACK`` / ``END`` — transaction state transitions.
- ``PREPARE`` — two-phase-commit phase-1 vote (presumed abort): the
  transaction's COMMIT-duration locks ride in the payload so a restarted
  shard can reacquire them and hold the transaction in-doubt until the
  coordinator's decision arrives.
- ``CKPT_BEGIN`` / ``CKPT_END`` — fuzzy checkpoint pair; the end record
  carries copies of the transaction table and dirty page table.
- ``COORD_COMMIT`` / ``COORD_ABORT`` / ``COORD_END`` — coordinator-log
  records (never appear in a shard's log): the forced commit decision
  for a global transaction, the advisory (unforced) abort decision, and
  the lazy completion marker once every participant has acknowledged.
"""

from __future__ import annotations

import enum
import struct
import sys
import zlib
from dataclasses import dataclass, field
from typing import Any, NamedTuple

from repro.codec.values import (
    RECORD_FRAME,
    decode_value,
    encode_value,
    frame_record,
    unframe_record,
)
from repro.common.errors import CorruptLogError, WALError

NULL_LSN = 0
"""LSN value meaning "none"; real LSNs start at 1."""


class RecordKind(enum.Enum):
    UPDATE = "update"
    CLR = "clr"
    DUMMY_CLR = "dummy_clr"
    COMMIT = "commit"
    ROLLBACK = "rollback"
    END = "end"
    PREPARE = "prepare"
    CKPT_BEGIN = "ckpt_begin"
    CKPT_END = "ckpt_end"
    #: Coordinator-log records (two-phase commit, presumed abort).
    COORD_COMMIT = "coord_commit"
    COORD_ABORT = "coord_abort"
    COORD_END = "coord_end"


#: Resource manager tags.
RM_HEAP = "heap"
RM_BTREE = "btree"
RM_TXN = "txn"

# -- body layout ---------------------------------------------------------------
#
# A record body is one fixed struct header, then ``rm`` and ``op`` as
# u8-length UTF-8 strings, then — only when it is non-empty — the
# payload dict in the tagged value codec:
#
#   kind u8 | flags u8 | txn_id u64 | prev_lsn u64 | page_id u32 |
#   prev_page_lsn u64 | undo_next_lsn u64 | rm | op | [payload]
#
# ``flags`` says whether the record is undoable and whether ``page_id``
# and ``undo_next_lsn`` are present (absent ones are stored as 0).  Kind
# codes are positions in this tuple, so new kinds go at the end; 0 is
# never a kind, and no code is the tagged codec's dict tag (``D``), so a
# body of the old tagged-dict format fails to decode instead of
# misparsing.
_KIND_BY_CODE: tuple[RecordKind | None, ...] = (None, *RecordKind)
#: Keyed by the kind's value: a ``str`` hashes in C, an Enum member
#: through the Python-level ``Enum.__hash__``.
_CODE_BY_VALUE = {kind.value: code for code, kind in enumerate(_KIND_BY_CODE) if kind}

_HEAD = struct.Struct(">BBQQIQQ")
_PACK_HEAD = _HEAD.pack
#: The CRC frame and the struct header in one unpack.
_UNPACK_FRAMED_HEAD = struct.Struct(">II" + _HEAD.format[1:]).unpack_from
_HEAD_SIZE = _HEAD.size
_FRAME_SIZE = RECORD_FRAME.size
#: Struct header plus two empty names: the shortest valid body.
_MIN_BODY = _HEAD_SIZE + 2
_F_UNDOABLE = 1
_F_PAGE = 2
_F_UNDO_NEXT = 4

#: ``(rm, op)`` → their packed length-prefixed bytes; a handful of pairs
#: cover every record, bounded like the codec's dict-key cache.
_NAMES: dict[tuple[str, str], bytes] = {}
_NAMES_MAX = 4096


def _pack_names(rm: str, op: str) -> bytes:
    packed = _NAMES.get((rm, op))
    if packed is None:
        rm_raw = rm.encode("utf-8")
        op_raw = op.encode("utf-8")
        if len(rm_raw) > 255 or len(op_raw) > 255:
            raise WALError(f"rm/op names longer than 255 bytes: {rm!r}.{op!r}")
        packed = bytes((len(rm_raw),)) + rm_raw + bytes((len(op_raw),)) + op_raw
        if len(_NAMES) < _NAMES_MAX:
            _NAMES[(rm, op)] = packed
    return packed


#: The decode side of ``_NAMES``: a body's raw name bytes (both
#: length-prefixed) → the interned ``(rm, op)`` pair, so parsing a
#: record's names is one lookup instead of two UTF-8 decodes.  Bounded
#: the same way.
_NAMES_BY_RAW: dict[bytes, tuple[str, str]] = {}


def _unpack_names(raw_names, offset: int) -> tuple[str, str]:
    """``_parse``'s lookup on a miss, or on a buffer that cannot be
    hashed (a writable ``memoryview`` or ``bytearray``)."""
    raw_names = bytes(raw_names)
    names = _NAMES_BY_RAW.get(raw_names)
    if names is None:
        size = raw_names[0]
        try:
            names = (
                sys.intern(str(raw_names[1 : 1 + size], "utf-8")),
                sys.intern(str(raw_names[2 + size :], "utf-8")),
            )
        except UnicodeDecodeError as exc:
            raise WALError(f"malformed log record body at offset {offset}") from exc
        if len(_NAMES_BY_RAW) < _NAMES_MAX:
            _NAMES_BY_RAW[raw_names] = names
    return names


def _parse(raw, offset: int) -> tuple:
    """Validate the frame at ``offset`` and split its body.

    Returns ``(fields, rm, op, body, payload_start, next_offset)``
    where ``fields`` is the unpacked CRC frame and struct header:
    ``(crc, length, kind code, flags, txn_id, prev_lsn, page_id,
    prev_page_lsn, undo_next_lsn)``.  A frame that is cut short or
    fails its CRC raises :class:`~repro.common.errors.CorruptLogError`
    (the torn-tail signal); a CRC-valid body that is not a record in
    this layout raises plain :class:`~repro.common.errors.WALError`.
    """
    try:
        fields = _UNPACK_FRAMED_HEAD(raw, offset)
        length = fields[1]
    except struct.error:
        length = -1
    start = offset + _FRAME_SIZE
    next_offset = start + length
    if length < _MIN_BODY or next_offset > len(raw):
        # Too short to hold a header: let the frame check say whether
        # the frame itself is cut short or damaged.
        body, _ = unframe_record(raw, offset)
        raise WALError(f"log record body at offset {offset} is only {len(body)} bytes")
    body = raw[start:next_offset]
    if zlib.crc32(body) != fields[0]:
        raise CorruptLogError(f"log record at offset {offset} failed its CRC check")
    # The names end after the op length byte, which follows the rm name.
    pos = _HEAD_SIZE + 2 + body[_HEAD_SIZE]
    if pos <= length:
        pos += body[pos - 1]
    if pos > length or not 0 < fields[2] < len(_KIND_BY_CODE):
        raise WALError(
            f"malformed log record body at offset {offset} "
            f"(kind code {fields[2]}, {length} bytes)"
        )
    raw_names = body[_HEAD_SIZE:pos]
    try:
        rm, op = _NAMES_BY_RAW[raw_names]
    except (KeyError, TypeError, ValueError):
        rm, op = _unpack_names(raw_names, offset)
    return fields, rm, op, body, pos, next_offset


@dataclass
class LogRecord:
    """A single write-ahead log record.

    ``lsn`` is assigned by the log manager at append time and equals the
    record's byte offset in the log stream (plus one, so LSN 0 can mean
    "null"), exactly as in classic ARIES implementations.
    """

    kind: RecordKind
    txn_id: int
    prev_lsn: int = NULL_LSN
    rm: str = RM_TXN
    op: str = ""
    page_id: int | None = None
    #: LSN of the previous record that touched the same page (the
    #: per-page log chain of instant restart: recovering one page walks
    #: this chain backwards instead of scanning the whole redo span).
    #: The page's PageLSN when the record was logged, set by
    #: ``Database.log_page_change``.
    prev_page_lsn: int = NULL_LSN
    payload: dict[str, Any] = field(default_factory=dict)
    undo_next_lsn: int | None = None
    undoable: bool = True
    lsn: int = NULL_LSN

    # -- classification helpers -------------------------------------------

    @property
    def is_redoable(self) -> bool:
        """Does this record describe a page change to reapply during redo?"""
        return (
            self.kind in (RecordKind.UPDATE, RecordKind.CLR)
            and self.page_id is not None
        )

    @property
    def is_clr(self) -> bool:
        return self.kind in (RecordKind.CLR, RecordKind.DUMMY_CLR)

    # -- serialization ------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize as a CRC-framed record (see
        :func:`~repro.codec.values.frame_record`) in the fixed-header
        layout described at the top of this module."""
        page_id = self.page_id
        undo_next = self.undo_next_lsn
        flags = (
            (_F_UNDOABLE if self.undoable else 0)
            | (0 if page_id is None else _F_PAGE)
            | (0 if undo_next is None else _F_UNDO_NEXT)
        )
        try:
            body = _PACK_HEAD(
                _CODE_BY_VALUE[self.kind._value_],
                flags,
                self.txn_id,
                self.prev_lsn,
                page_id or 0,
                self.prev_page_lsn,
                undo_next or 0,
            )
        except struct.error as exc:
            raise WALError(f"log record field out of range: {exc}") from exc
        body += _pack_names(self.rm, self.op)
        if self.payload:
            body += encode_value(self.payload)
        return frame_record(body)

    @classmethod
    def from_bytes(
        cls, raw, offset: int = 0, lsn: int = NULL_LSN
    ) -> tuple["LogRecord", int]:
        """Decode the framed record at ``offset`` (``raw`` may be any
        buffer, ``memoryview`` included); returns it, stamped with
        ``lsn``, and the offset of the next frame."""
        fields, rm, op, body, pos, next_offset = _parse(raw, offset)
        _, _, code, flags, txn_id, prev_lsn, page_id, prev_page_lsn, undo_next = fields
        payload: Any = {}
        if pos < len(body):
            payload, end = decode_value(body, pos)
            if not isinstance(payload, dict) or end != len(body):
                raise WALError(f"malformed log record payload at offset {offset}")
        record = cls(  # positional: field order, half the cost of keywords
            _KIND_BY_CODE[code],
            txn_id,
            prev_lsn,
            rm,
            op,
            page_id if flags & _F_PAGE else None,
            prev_page_lsn,
            payload,
            undo_next if flags & _F_UNDO_NEXT else None,
            bool(flags & _F_UNDOABLE),
            lsn,
        )
        return record, next_offset

    def __repr__(self) -> str:
        bits = [f"lsn={self.lsn}", self.kind.value, f"txn={self.txn_id}"]
        if self.op:
            bits.append(f"{self.rm}.{self.op}")
        if self.page_id is not None:
            bits.append(f"page={self.page_id}")
        if self.undo_next_lsn is not None:
            bits.append(f"undo_next={self.undo_next_lsn}")
        return f"<LogRecord {' '.join(bits)}>"


class RecordHeader(NamedTuple):
    """Every field of one log record except its payload, plus its LSN.
    A header scan answers "which pages does the redo span touch, which
    transactions are in flight, and with which LSNs?" without decoding
    a payload — see :meth:`~repro.wal.log.LogManager.record_headers`."""

    lsn: int
    kind: RecordKind
    txn_id: int
    prev_lsn: int
    rm: str
    op: str
    page_id: int | None
    prev_page_lsn: int
    undo_next_lsn: int | None
    undoable: bool

    @property
    def is_redoable(self) -> bool:
        return (
            self.kind in (RecordKind.UPDATE, RecordKind.CLR)
            and self.page_id is not None
        )


#: Builds a header from a tuple of its fields without the namedtuple's
#: Python-level ``__new__``.
_tuple_new = tuple.__new__


def header_from_bytes(
    raw, offset: int = 0, lsn: int = NULL_LSN
) -> tuple[RecordHeader, int]:
    """Decode one framed record's header fields only (no payload)."""
    fields, rm, op, _, _, next_offset = _parse(raw, offset)
    _, _, code, flags, txn_id, prev_lsn, page_id, prev_page_lsn, undo_next = fields
    return (
        _tuple_new(
            RecordHeader,
            (
                lsn,
                _KIND_BY_CODE[code],
                txn_id,
                prev_lsn,
                rm,
                op,
                page_id if flags & _F_PAGE else None,
                prev_page_lsn,
                undo_next if flags & _F_UNDO_NEXT else None,
                bool(flags & _F_UNDOABLE),
            )
        ),
        next_offset,
    )


def update_record(
    txn_id: int,
    rm: str,
    op: str,
    page_id: int,
    payload: dict[str, Any],
    undoable: bool = True,
) -> LogRecord:
    """Build a forward-processing undo-redo update record."""
    # Positional, in field order: half the cost of keywords.
    return LogRecord(
        RecordKind.UPDATE, txn_id, NULL_LSN, rm, op, page_id, NULL_LSN, payload,
        None, undoable,
    )


def commit_record(txn_id: int) -> LogRecord:
    """Build the COMMIT record of a local transaction."""
    return LogRecord(RecordKind.COMMIT, txn_id, NULL_LSN, RM_TXN, "", None, NULL_LSN, {})


def end_record(txn_id: int) -> LogRecord:
    """Build the END record that closes a transaction's log chain."""
    return LogRecord(
        RecordKind.END, txn_id, NULL_LSN, RM_TXN, "", None, NULL_LSN, {}, None, False
    )


def clr_record(
    txn_id: int,
    rm: str,
    op: str,
    page_id: int,
    payload: dict[str, Any],
    undo_next_lsn: int,
) -> LogRecord:
    """Build a compensation record for the undo of one update."""
    return LogRecord(
        kind=RecordKind.CLR,
        txn_id=txn_id,
        rm=rm,
        op=op,
        page_id=page_id,
        payload=payload,
        undo_next_lsn=undo_next_lsn,
        undoable=False,
    )


def prepare_record(
    txn_id: int, gid: str, locks: list[Any]
) -> LogRecord:
    """Build the phase-1 vote record of two-phase commit.

    ``gid`` names the global transaction; ``locks`` is the transaction's
    COMMIT-duration lock set as encoded by
    :func:`~repro.codec.values.encode_lock_table` — enough for a
    restarted shard to reacquire them and hold the transaction in-doubt.
    """
    return LogRecord(
        kind=RecordKind.PREPARE,
        txn_id=txn_id,
        rm=RM_TXN,
        op="prepare",
        payload={"gid": gid, "locks": locks},
        undoable=False,
    )


def dummy_clr(txn_id: int, undo_next_lsn: int) -> LogRecord:
    """Build the dummy CLR that terminates a nested top action."""
    return LogRecord(
        kind=RecordKind.DUMMY_CLR,
        txn_id=txn_id,
        rm=RM_TXN,
        op="nta_end",
        undo_next_lsn=undo_next_lsn,
        undoable=False,
    )
