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
from dataclasses import dataclass, field
from typing import Any

from typing import NamedTuple

from repro.codec.values import (
    decode_dict_prefix,
    decode_value,
    encode_value,
    frame_record,
    unframe_record,
)
from repro.common.errors import WALError

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
    #: Stamped by the log manager at append time.
    prev_page_lsn: int = NULL_LSN
    payload: dict[str, Any] = field(default_factory=dict)
    undo_next_lsn: int | None = None
    undoable: bool = True
    lsn: int = NULL_LSN
    #: Size of this record's CRC frame in the log stream, recorded when
    #: the record enters or leaves the byte stream (append / parse).
    #: Lets the commit force path compute its byte target without
    #: re-serializing the record.  Never set ahead of append — fields
    #: are still mutable until then.
    framed_size: int | None = field(default=None, compare=False, repr=False)

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
        :func:`~repro.codec.values.frame_record`)."""
        body = {
            "kind": self.kind.value,
            "txn_id": self.txn_id,
            "prev_lsn": self.prev_lsn,
            "rm": self.rm,
            "op": self.op,
            "page_id": self.page_id,
            "prev_page_lsn": self.prev_page_lsn,
            "payload": self.payload,
            "undo_next_lsn": self.undo_next_lsn,
            "undoable": self.undoable,
        }
        return frame_record(encode_value(body))

    @classmethod
    def from_bytes(cls, raw: bytes, offset: int = 0) -> tuple["LogRecord", int]:
        body_raw, next_offset = unframe_record(raw, offset)
        body, _ = decode_value(body_raw)
        if not isinstance(body, dict):
            raise WALError("malformed log record")
        record = cls(
            kind=RecordKind(body["kind"]),
            txn_id=body["txn_id"],
            prev_lsn=body["prev_lsn"],
            rm=body["rm"],
            op=body["op"],
            page_id=body["page_id"],
            prev_page_lsn=body.get("prev_page_lsn", NULL_LSN),
            payload=body["payload"],
            undo_next_lsn=body["undo_next_lsn"],
            undoable=body["undoable"],
        )
        record.framed_size = next_offset - offset
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
    """The cheap-to-decode prefix of one log record: everything that
    precedes the payload in the serialized body, plus the frame
    position.  A header scan answers "which pages does the redo span
    touch, and with which LSNs?" without paying for payload decoding —
    see :meth:`~repro.wal.log.LogManager.record_headers`."""

    lsn: int
    kind: RecordKind
    txn_id: int
    rm: str
    op: str
    page_id: int | None
    prev_page_lsn: int

    @property
    def is_redoable(self) -> bool:
        return (
            self.kind in (RecordKind.UPDATE, RecordKind.CLR)
            and self.page_id is not None
        )


def header_from_bytes(
    raw: bytes, offset: int = 0, lsn: int = NULL_LSN
) -> tuple[RecordHeader, int]:
    """Decode one framed record's header fields only (no payload)."""
    body, next_offset = unframe_record(raw, offset)
    fields = decode_dict_prefix(body, stop_key="payload")
    return (
        RecordHeader(
            lsn=lsn,
            kind=RecordKind(fields["kind"]),
            txn_id=fields["txn_id"],
            rm=fields["rm"],
            op=fields["op"],
            page_id=fields["page_id"],
            prev_page_lsn=fields.get("prev_page_lsn", NULL_LSN),
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
    return LogRecord(
        kind=RecordKind.UPDATE,
        txn_id=txn_id,
        rm=rm,
        op=op,
        page_id=page_id,
        payload=payload,
        undoable=undoable,
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
