"""Offline WAL verifier: replay a log's records and check its invariants.

The log is the database — so a log that violates its own framing
invariants is a latent recovery bug regardless of whether any test
happened to trip over it.  This verifier checks, record by record:

- **LSN monotonicity** — LSNs strictly increase (they are byte
  positions in this implementation, so a violation means a torn or
  hand-mangled stream).
- **prev_lsn chains** — every transaction's records form a backward
  chain; each record's ``prev_lsn`` is exactly the transaction's
  previous record (or pre-truncation / NULL for its first).
- **prev_page_lsn chains** (PR 4) — every redoable record's
  ``prev_page_lsn`` is the page's previous redoable record, NULL (a
  fresh chain: crash clears the volatile chain map for clean pages),
  or pre-truncation.  A non-NULL in-range value that is *not* the
  page's latest record is a broken chain.
- **CLR undo-next termination** — a CLR's ``undo_next_lsn`` is NULL or
  strictly behind its own LSN, and names a record of its own
  transaction when in range.
- **Transaction state ordering** — PREPARE → COMMIT/ROLLBACK → END per
  transaction (presumed-abort means a missing END is fine, a *second*
  END never is); after COMMIT only END; nothing after END.  Restart
  losers log CLRs then END with no ROLLBACK record — allowed.
- **Purge framing** (PR 6) — ``op == "purge"`` records are redo-only
  (``undoable=False``) and live in a system transaction that does
  nothing else and never rolls back.

Run as ``python -m repro.analysis walcheck <log-file>`` on a file
written by :func:`write_log_file`, or call :func:`check_log` on a live
:class:`~repro.wal.log.LogManager` (the torture harness does, at the
end of every round, on the surviving log).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.common.errors import CorruptLogError, ReproError, WALError
from repro.wal.records import NULL_LSN, LogRecord, RecordKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.wal.log import LogManager

#: File header for dumped logs: magic, then the stream's first LSN.
#: Version 2 dumps hold fixed-header record bodies (see
#: :mod:`repro.wal.records`); version 1 held tagged-dict bodies.
MAGIC = b"RPRWAL2\x00"

#: Record kinds outside any transaction's prev_lsn chain: checkpoints
#: and 2PC coordinator records are logged with txn_id 0.
_UNCHAINED_KINDS = frozenset(
    {
        RecordKind.CKPT_BEGIN,
        RecordKind.CKPT_END,
        RecordKind.COORD_COMMIT,
        RecordKind.COORD_ABORT,
        RecordKind.COORD_END,
    }
)


class WalCheckError(ReproError):
    """Raised by :func:`check_log` / CLI when a log fails verification."""


@dataclass(frozen=True)
class WalCheckFinding:
    lsn: int
    message: str

    def format(self) -> str:
        return f"lsn {self.lsn}: {self.message}"


@dataclass
class WalCheckReport:
    """Outcome of one verification pass."""

    records_checked: int = 0
    transactions_seen: int = 0
    first_lsn: int = 1
    findings: list[WalCheckFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def add(self, lsn: int, message: str) -> None:
        self.findings.append(WalCheckFinding(lsn, message))

    def format(self) -> str:
        lines = [f.format() for f in self.findings]
        verdict = "OK" if self.ok else f"{len(self.findings)} finding(s)"
        lines.append(
            f"walcheck: {verdict} — {self.records_checked} record(s), "
            f"{self.transactions_seen} transaction(s), "
            f"first LSN {self.first_lsn}"
        )
        return "\n".join(lines)


@dataclass
class _TxnState:
    last_lsn: int
    #: "active" → "prepared" → "committed"/"aborted" → "ended"
    status: str = "active"
    has_purge: bool = False
    has_other_work: bool = False


def check_records(
    records: Iterable[LogRecord], first_lsn: int = 1
) -> WalCheckReport:
    """Verify a record stream.  ``first_lsn`` is the truncation point:
    backward references below it point into the discarded prefix and
    are accepted on faith."""
    report = WalCheckReport(first_lsn=first_lsn)
    txns: dict[int, _TxnState] = {}
    page_tail: dict[int, int] = {}  # page_id -> latest redoable LSN
    page_seen: dict[int, set[int]] = {}  # page_id -> all redoable LSNs
    lsn_txn: dict[int, int] = {}  # in-range LSN -> txn_id
    last_lsn = first_lsn - 1
    ckpt_open = 0

    for record in records:
        report.records_checked += 1
        lsn = record.lsn

        # -- monotonicity --------------------------------------------------
        if lsn <= last_lsn:
            report.add(lsn, f"LSN not increasing (previous was {last_lsn})")
        last_lsn = max(last_lsn, lsn)

        # -- checkpoint bracketing ----------------------------------------
        if record.kind is RecordKind.CKPT_BEGIN:
            ckpt_open += 1
        elif record.kind is RecordKind.CKPT_END:
            if ckpt_open == 0:
                report.add(lsn, "CKPT_END without an open CKPT_BEGIN")
            else:
                ckpt_open -= 1

        chained = record.txn_id != 0 and record.kind not in _UNCHAINED_KINDS
        if chained:
            lsn_txn[lsn] = record.txn_id
            state = txns.get(record.txn_id)

            # -- prev_lsn chain -------------------------------------------
            if state is None:
                report.transactions_seen += 1
                if record.prev_lsn != NULL_LSN and record.prev_lsn >= first_lsn:
                    report.add(
                        lsn,
                        f"txn {record.txn_id} first record has in-range "
                        f"prev_lsn {record.prev_lsn} (expected NULL or "
                        "pre-truncation)",
                    )
                state = txns[record.txn_id] = _TxnState(last_lsn=lsn)
            else:
                if record.prev_lsn != state.last_lsn:
                    report.add(
                        lsn,
                        f"txn {record.txn_id} prev_lsn {record.prev_lsn} "
                        f"breaks the chain (previous record was "
                        f"{state.last_lsn})",
                    )
                state.last_lsn = lsn

            _check_txn_ordering(report, record, state)
            _check_purge_framing(report, record, state)

        # -- prev_page_lsn chain ------------------------------------------
        if record.is_redoable:
            page_id = record.page_id
            prev = record.prev_page_lsn
            tail = page_tail.get(page_id)
            if prev != NULL_LSN and prev >= first_lsn and prev != tail:
                if prev in page_seen.get(page_id, ()):
                    report.add(
                        lsn,
                        f"page {page_id} prev_page_lsn {prev} is stale "
                        f"(page's latest record is {tail})",
                    )
                else:
                    report.add(
                        lsn,
                        f"page {page_id} prev_page_lsn {prev} names no "
                        f"record of this page (latest is {tail})",
                    )
            page_tail[page_id] = lsn
            page_seen.setdefault(page_id, set()).add(lsn)

        # -- CLR undo-next termination ------------------------------------
        if record.is_clr:
            undo_next = record.undo_next_lsn
            if undo_next is not None and undo_next != NULL_LSN:
                if undo_next >= lsn:
                    report.add(
                        lsn,
                        f"CLR undo_next_lsn {undo_next} does not go "
                        "backward (chain cannot terminate)",
                    )
                elif (
                    undo_next in lsn_txn
                    and lsn_txn[undo_next] != record.txn_id
                ):
                    report.add(
                        lsn,
                        f"CLR undo_next_lsn {undo_next} names a record of "
                        f"txn {lsn_txn[undo_next]}, not txn {record.txn_id}",
                    )

    if ckpt_open:
        # An in-flight checkpoint at end-of-log is normal (crash during
        # checkpoint); only unbalanced ENDs are findings.
        pass
    return report


def _check_txn_ordering(
    report: WalCheckReport, record: LogRecord, state: _TxnState
) -> None:
    lsn, kind, txn_id = record.lsn, record.kind, record.txn_id
    if state.status == "ended":
        report.add(lsn, f"txn {txn_id}: {kind.value} record after END")
        return
    if kind is RecordKind.PREPARE:
        if state.status != "active":
            report.add(lsn, f"txn {txn_id}: PREPARE while {state.status}")
        else:
            state.status = "prepared"
    elif kind is RecordKind.COMMIT:
        if state.status not in ("active", "prepared"):
            report.add(lsn, f"txn {txn_id}: COMMIT while {state.status}")
        state.status = "committed"
    elif kind is RecordKind.ROLLBACK:
        if state.status not in ("active", "prepared"):
            report.add(lsn, f"txn {txn_id}: ROLLBACK while {state.status}")
        state.status = "aborted"
    elif kind is RecordKind.END:
        # END from "active" is legal: restart losers get CLRs then END
        # with no ROLLBACK record (presumed abort), and a committed or
        # rolled-back txn ENDs normally.
        state.status = "ended"
    elif kind in (RecordKind.UPDATE, RecordKind.CLR, RecordKind.DUMMY_CLR):
        # Updates belong to the forward phase; CLRs to rollback.  Both
        # can legally appear while "active" (partial rollbacks, restart
        # undo before any ROLLBACK record) or "aborted", but a
        # committed txn writes nothing except its END.
        if state.status == "committed":
            report.add(lsn, f"txn {txn_id}: {kind.value} after COMMIT")
        elif state.status == "prepared" and kind is RecordKind.UPDATE:
            report.add(lsn, f"txn {txn_id}: UPDATE after PREPARE")


def _check_purge_framing(
    report: WalCheckReport, record: LogRecord, state: _TxnState
) -> None:
    lsn, txn_id = record.lsn, record.txn_id
    if record.kind is RecordKind.UPDATE and record.op == "purge":
        if record.undoable:
            report.add(lsn, f"txn {txn_id}: purge record marked undoable")
        state.has_purge = True
    elif record.kind in (
        RecordKind.UPDATE,
        RecordKind.CLR,
        RecordKind.DUMMY_CLR,
    ):
        state.has_other_work = True
    elif record.kind is RecordKind.ROLLBACK and state.has_purge:
        report.add(
            lsn, f"txn {txn_id}: purge system txn must never roll back"
        )
    if state.has_purge and state.has_other_work:
        report.add(
            lsn,
            f"txn {txn_id}: purge records mixed with other work "
            "(purges ride a dedicated system txn)",
        )
        state.has_other_work = False  # report once


def check_log(log: "LogManager") -> WalCheckReport:
    """Verify a live :class:`~repro.wal.log.LogManager`'s full
    in-memory stream from its truncation point."""
    first = log.truncation_point
    return check_records(log.records(first), first_lsn=first)


# -- dump-file format --------------------------------------------------------


def write_log_file(log: "LogManager", path: str | Path) -> int:
    """Dump the log's surviving stream (magic + first LSN + raw CRC
    frames) for offline checking; returns the byte count written."""
    first = log.truncation_point
    raw = log.raw_slice(first)
    data = MAGIC + struct.pack("<Q", first) + raw
    Path(path).write_bytes(data)
    return len(data)


def read_log_file(path: str | Path) -> tuple[int, list[LogRecord]]:
    """Parse a dump back into records.  Also accepts a bare frame
    stream (no header), assuming first LSN 1.  Parsing stops cleanly at
    a torn tail, exactly like live-log iteration.  A dump or stream of
    an older record format raises :class:`WalCheckError`."""
    data = Path(path).read_bytes()
    if data.startswith(MAGIC):
        (first_lsn,) = struct.unpack_from("<Q", data, len(MAGIC))
        stream = data[len(MAGIC) + 8 :]
    elif data.startswith(MAGIC[:6]):
        raise WalCheckError(
            f"{path}: dump format {data[:8]!r} is not {MAGIC!r}; "
            "re-dump the log with this version"
        )
    else:
        first_lsn = 1
        stream = data
    records: list[LogRecord] = []
    offset = 0
    while offset < len(stream):
        try:
            record, next_offset = LogRecord.from_bytes(
                stream, offset, lsn=first_lsn + offset
            )
        except CorruptLogError:
            break
        except WALError as exc:
            # A CRC-valid frame whose body is not a record in this
            # layout: e.g. a version 1 stream of tagged-dict bodies.
            raise WalCheckError(
                f"{path}: record at LSN {first_lsn + offset} is not in the "
                f"version 2 record format: {exc}"
            ) from exc
        records.append(record)
        offset = next_offset
    return first_lsn, records


def check_file(path: str | Path) -> WalCheckReport:
    first_lsn, records = read_log_file(path)
    return check_records(records, first_lsn=first_lsn)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python -m repro.analysis walcheck <log-file>")
        return 2
    try:
        report = check_file(argv[0])
    except WalCheckError as exc:
        print(f"walcheck: {exc}")
        return 2
    print(report.format())
    return 0 if report.ok else 1
