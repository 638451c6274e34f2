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
- ``COMMIT`` — the last record of a committed transaction: no END
  follows it, and restart analysis retires the transaction there.
- ``ROLLBACK`` / ``END`` — a rollback's start and the end of a
  rolled-back transaction's chain (restart undo of a loser writes the
  END alone).
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
from operator import itemgetter
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
# A record body is a kind byte and a flags byte, then only the header
# fields the record has, in this order, then — only when it is
# non-empty — the payload dict in the tagged value codec:
#
#   kind u8 | flags u8 | [txn_id u64] | [prev_lsn u64] | [op u8] |
#   [page_id u32] | [prev_page_lsn u64] | [undo_next_lsn u64] |
#   [rm, op as u8-length UTF-8 strings] | [payload]
#
# ``flags`` says which fields are present: a zero ``txn_id``,
# ``prev_lsn`` or ``prev_page_lsn`` and an absent ``page_id`` or
# ``undo_next_lsn`` take no bytes.  The ``(rm, op)`` pair is a one-byte
# code from ``_OPS``; the transaction-state pair (``txn``, no op) takes
# no byte, and a pair outside the table is spelled out as two strings.
# Each flags value fixes the header's shape, so the CRC frame and the
# header are one precompiled struct unpack (``_SHAPES``).
#
# Kind codes are ``_KIND_BASE`` plus the kind's position in
# ``_KIND_BY_CODE``, so new kinds go at the end.  The previous
# fixed-header layout used the positions themselves (1–12): a body in
# that layout is refused by name, never misparsed.  No code is the
# tagged codec's dict tag (``D``), so an older tagged-dict body fails
# to decode too.
_KIND_BY_CODE: tuple[RecordKind | None, ...] = (None, *RecordKind)
_KIND_BASE = 0x20
#: Keyed by the kind's value: a ``str`` hashes in C, an Enum member
#: through the Python-level ``Enum.__hash__``.
_CODE_BY_VALUE = {
    kind.value: _KIND_BASE + code for code, kind in enumerate(_KIND_BY_CODE) if kind
}
#: Body byte 0 → its kind, None for a byte that is no kind code.
_KIND_OF_BYTE: tuple[RecordKind | None, ...] = (
    (None,) * _KIND_BASE
    + _KIND_BY_CODE
    + (None,) * (256 - _KIND_BASE - len(_KIND_BY_CODE))
)
#: The fixed-header layout's shortest body: a 38-byte header and two
#: empty names.
_LEGACY_MIN_BODY = 40

#: ``(rm, op)`` pairs by their one-byte code.  Code 0, the
#: transaction-state pair, is never stored.  New pairs go at the end.
_OPS: tuple[tuple[str, str], ...] = (
    (RM_TXN, ""),
    (RM_TXN, "prepare"),
    (RM_TXN, "nta_end"),
    (RM_HEAP, "format"),
    (RM_HEAP, "insert"),
    (RM_HEAP, "delete"),
    (RM_HEAP, "unghost_c"),
    (RM_HEAP, "remove_c"),
    (RM_HEAP, "purge"),
    (RM_BTREE, "page_format"),
    (RM_BTREE, "insert_key"),
    (RM_BTREE, "insert_key_c"),
    (RM_BTREE, "delete_key"),
    (RM_BTREE, "delete_key_c"),
    (RM_BTREE, "leaf_shrink"),
    (RM_BTREE, "chain_prev"),
    (RM_BTREE, "chain_next"),
    (RM_BTREE, "set_page"),
    (RM_BTREE, "set_page_c"),
)
_OP_CODES = {pair: code for code, pair in enumerate(_OPS)}
#: Decode side, padded so that any byte indexes it.
_OPS_BY_BYTE: tuple[tuple[str, str] | None, ...] = _OPS + (None,) * (256 - len(_OPS))

_F_UNDOABLE = 1
_F_TXN = 2
_F_PREV = 4
_F_OP = 8
_F_PAGE = 16
_F_PREV_PAGE = 32
_F_UNDO_NEXT = 64
_F_NAMES = 128
#: The optional header fields in body order: their flag, struct code
#: and the value an absent one reads as.
_FIELDS = (
    (_F_TXN, "Q", 0),
    (_F_PREV, "Q", NULL_LSN),
    (_F_OP, "B", 0),
    (_F_PAGE, "I", None),
    (_F_PREV_PAGE, "Q", NULL_LSN),
    (_F_UNDO_NEXT, "Q", None),
)
#: Appended to an unpacked header so an absent field can be picked.
_STAND_INS = (0, None)
_FRAME_SIZE = RECORD_FRAME.size
#: Offset of the flags byte from the start of a frame.
_FLAGS_AT = _FRAME_SIZE + 1


def _shape(flags: int) -> tuple:
    """The header of one flags value: how to pack it and how to read it.

    ``select`` picks the present fields out of ``(kind code, flags,
    txn_id, prev_lsn, op code, page_id, prev_page_lsn, undo_next_lsn)``
    for ``pack``.  ``unpack`` reads the CRC frame and the header at
    once, and ``canonical`` maps that tuple plus ``_STAND_INS`` to
    ``(crc, length, kind code, flags, txn_id, prev_lsn, op code,
    page_id, prev_page_lsn, undo_next_lsn)``."""
    present = [flag & flags for flag, _, _ in _FIELDS]
    head = struct.Struct(">BB" + "".join(c for (_, c, _), p in zip(_FIELDS, present) if p))
    framed = struct.Struct(RECORD_FRAME.format + head.format[1:])
    select = [0, 1]  # kind code, flags
    picks = [0, 1, 2, 3]  # crc, length, kind code, flags
    at = 4
    stand_ins_at = at + sum(map(bool, present))
    for position, ((_, _, absent), here) in enumerate(zip(_FIELDS, present)):
        if here:
            select.append(2 + position)
            picks.append(at)
            at += 1
        else:
            picks.append(stand_ins_at + _STAND_INS.index(absent))
    return (head.pack, itemgetter(*select)), (
        framed.unpack_from, itemgetter(*picks), head.size
    )


#: By flags value: ``(pack, select)`` and ``(unpack, canonical,
#: body_size)`` (see :func:`_shape`).
_PACKERS, _SHAPES = zip(*map(_shape, range(256)))


def _pack_names(rm: str, op: str) -> bytes:
    """A pair outside ``_OPS`` as two length-prefixed strings."""
    rm_raw = rm.encode("utf-8")
    op_raw = op.encode("utf-8")
    if len(rm_raw) > 255 or len(op_raw) > 255:
        raise WALError(f"rm/op names longer than 255 bytes: {rm!r}.{op!r}")
    return bytes((len(rm_raw),)) + rm_raw + bytes((len(op_raw),)) + op_raw


def _unpack_names(body, pos: int, offset: int) -> tuple[str, str, int]:
    """Read the spelled-out ``(rm, op)`` at ``pos``; returns them and
    the offset after them."""
    try:
        rm_end = pos + 1 + body[pos]
        end = rm_end + 1 + body[rm_end]
        if end > len(body):
            raise IndexError(end)
        rm = sys.intern(str(body[pos + 1 : rm_end], "utf-8"))
        op = sys.intern(str(body[rm_end + 1 : end], "utf-8"))
    except (IndexError, UnicodeDecodeError) as exc:
        raise WALError(f"malformed rm/op names in log record at offset {offset}") from exc
    return rm, op, end


def _refuse(body, offset: int) -> WALError:
    """The error for a CRC-valid body that is not a record in this
    layout, naming the previous layout when it is one of its bodies."""
    code = body[0] if len(body) else None
    if len(body) >= _LEGACY_MIN_BODY and code in range(1, len(_KIND_BY_CODE)):
        return WALError(
            f"log record at offset {offset} is in the previous fixed-header "
            f"layout (kind code {code}, 38-byte header), which this version "
            "no longer reads"
        )
    return WALError(
        f"malformed log record body at offset {offset} "
        f"(byte 0 = {code}, {len(body)} bytes)"
    )


def _parse(raw, offset: int) -> tuple:
    """Validate the frame at ``offset`` and split its body.

    Returns ``(kind, fields, rm, op, body, payload_start, next_offset)``
    where ``fields`` is the canonical tuple of :func:`_shape`.  A frame
    that is cut short or fails its CRC raises
    :class:`~repro.common.errors.CorruptLogError` (the torn-tail
    signal); a CRC-valid body that is not a record in this layout
    raises plain :class:`~repro.common.errors.WALError`.
    """
    try:
        unpack, canonical, body_size = _SHAPES[raw[offset + _FLAGS_AT]]
        fields = unpack(raw, offset)
        length = fields[1]
    except (IndexError, struct.error):
        length, body_size = -1, 0
    start = offset + _FRAME_SIZE
    next_offset = start + length
    if length < body_size or next_offset > len(raw):
        # Let the frame check say whether the frame itself is cut short
        # or damaged; if it is whole, the body is no record.
        body, _ = unframe_record(raw, offset)
        raise _refuse(body, offset)
    body = raw[start:next_offset]
    if zlib.crc32(body) != fields[0]:
        raise CorruptLogError(f"log record at offset {offset} failed its CRC check")
    kind = _KIND_OF_BYTE[fields[2]]
    flags = fields[3]
    if kind is None or flags & _F_NAMES and flags & _F_OP:
        raise _refuse(body, offset)
    fields = canonical(fields + _STAND_INS)
    pos = body_size
    if flags & _F_NAMES:
        rm, op, pos = _unpack_names(body, pos, offset)
    else:
        names = _OPS_BY_BYTE[fields[6]]
        if names is None:
            raise _refuse(body, offset)
        rm, op = names
    return kind, fields, rm, op, body, pos, next_offset


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
        :func:`~repro.codec.values.frame_record`) in the compact-header
        layout described at the top of this module."""
        txn_id = self.txn_id
        prev_lsn = self.prev_lsn
        page_id = self.page_id
        prev_page_lsn = self.prev_page_lsn
        undo_next = self.undo_next_lsn
        flags = (
            (_F_UNDOABLE if self.undoable else 0)
            | (_F_TXN if txn_id else 0)
            | (_F_PREV if prev_lsn else 0)
            | (0 if page_id is None else _F_PAGE)
            | (_F_PREV_PAGE if prev_page_lsn else 0)
            | (0 if undo_next is None else _F_UNDO_NEXT)
        )
        op_code = _OP_CODES.get((self.rm, self.op))
        if op_code is None:
            flags |= _F_NAMES
            op_code = 0
        elif op_code:
            flags |= _F_OP
        pack, select = _PACKERS[flags]
        try:
            body = pack(
                *select(
                    (
                        _CODE_BY_VALUE[self.kind._value_],
                        flags,
                        txn_id,
                        prev_lsn,
                        op_code,
                        page_id,
                        prev_page_lsn,
                        undo_next,
                    )
                )
            )
        except struct.error as exc:
            raise WALError(f"log record field out of range: {exc}") from exc
        if flags & _F_NAMES:
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
        kind, fields, rm, op, body, pos, next_offset = _parse(raw, offset)
        _, _, _, flags, txn_id, prev_lsn, _, page_id, prev_page_lsn, undo_next = fields
        payload: Any = {}
        if pos < len(body):
            payload, end = decode_value(body, pos)
            if not isinstance(payload, dict) or end != len(body):
                raise WALError(f"malformed log record payload at offset {offset}")
        record = cls(  # positional: field order, half the cost of keywords
            kind,
            txn_id,
            prev_lsn,
            rm,
            op,
            page_id,
            prev_page_lsn,
            payload,
            undo_next,
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
    kind, fields, rm, op, _, _, next_offset = _parse(raw, offset)
    _, _, _, flags, txn_id, prev_lsn, _, page_id, prev_page_lsn, undo_next = fields
    return (
        _tuple_new(
            RecordHeader,
            (
                lsn,
                kind,
                txn_id,
                prev_lsn,
                rm,
                op,
                page_id,
                prev_page_lsn,
                undo_next,
                bool(flags & _F_UNDOABLE),
            ),
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
    """Build the END record that closes a rolled-back transaction's log
    chain (a committed one ends at its COMMIT)."""
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
