"""Primary-side replication: snapshot service, WAL shipper, sync gate.

The manager implements the primary's half of the log-shipping protocol.
Everything it serves is expressed in raw stream bytes (``bytes`` values
in the wire frames) so the standby's log is a byte-exact continuation of the
primary's — LSNs are byte offsets, and identical bytes mean identical
LSNs, which is what lets the standby reuse every recovery pass
unchanged at promotion time.

Two invariants are enforced here:

- **Never past the flush boundary.**  A poll returns only whole frames
  entirely inside the durable prefix (``flushed_lsn``), so a standby
  can never observe a commit the primary itself could lose in a crash.
- **Sync mode never lies.**  With ``sync=True``, commit
  acknowledgement is held (after local durability) until every
  registered subscriber's acked position covers the commit record; a
  timeout or a primary crash surfaces as
  :class:`SyncReplicationTimeoutError` — the commit is locally durable
  but in doubt on the standby, and the caller is told exactly that.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING

from repro.common.errors import (
    CorruptLogError,
    LSNOutOfRangeError,
    SyncReplicationTimeoutError,
)
from repro.recovery.media import take_image_copy
from repro.replication.catalog import catalog_snapshot
from repro.wal.records import NULL_LSN, LogRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.db import Database
    from repro.incarnation import Incarnation

#: Default cap on one poll response's log bytes (well under
#: MAX_FRAME_BYTES; the frame carries them unexpanded).
DEFAULT_POLL_BYTES = 256 * 1024


def _clip_whole_frames(data: bytes, max_bytes: int) -> bytes:
    """Longest prefix of ``data`` that is whole frames and (frame
    boundaries permitting) at most ``max_bytes``.  Always keeps at
    least the first frame so a shipper cannot stall on a record larger
    than the cap."""
    offset = 0
    while offset < len(data):
        try:
            _, next_offset = LogRecord.from_bytes(data, offset)
        except CorruptLogError:
            break  # partial frame at the flush boundary: not shippable yet
        if offset > 0 and next_offset > max_bytes:
            break
        offset = next_offset
        if offset >= max_bytes:
            break
    return data[:offset]


class ReplicationManager:
    """Tracks subscribers and serves the log-shipping protocol."""

    def __init__(
        self,
        db: "Database",
        sync: bool = False,
        sync_timeout_seconds: float = 5.0,
    ) -> None:
        self.db = db
        self.sync = sync
        self.sync_timeout_seconds = sync_timeout_seconds
        self._cond = threading.Condition()
        self._acked: dict[str, int] = {}  # subscriber -> durable byte pos
        self._last_poll: dict[str, float] = {}

    # -- subscriber protocol -------------------------------------------------

    def handshake(self, name: str) -> dict:
        """Register (or re-register) a subscriber.  Reconnects keep the
        previously acked position so shipping resumes where it left
        off."""
        with self._cond:
            self._acked.setdefault(name, 0)
            acked = self._acked[name]
        self.db.stats.incr("repl.handshakes")
        return {
            "name": name,
            "acked_lsn": acked,
            "flushed_lsn": self.db.log.flushed_lsn,
            "end_lsn": self.db.log.end_lsn,
        }

    def snapshot(self) -> dict:
        """A seed for a new standby: checkpoint, fuzzy image copy,
        catalog, and the ship-start LSN.

        The ship-start is the trim-safe point (master checkpoint, dirty
        recLSNs, active transactions' first records) clamped to what
        the log still holds — everything a promotion-time restart could
        read is at or after it, so a standby whose log begins there can
        run full recovery.  Checkpointing first keeps that point
        recent.  WAL-before-data means the dumped pages contain no
        effect the flushed log does not cover.
        """
        db = self.db
        db.checkpoint()
        copy = take_image_copy(db)
        candidates = [db.log.master_lsn or 1]
        dirty = db.buffer.dirty_page_table()
        if dirty:
            candidates.append(min(dirty.values()))
        for txn in db.txns.active_transactions():
            if txn.first_lsn != NULL_LSN:
                candidates.append(txn.first_lsn)
        ship_start = max(min(candidates), db.log.truncation_point)
        db.stats.incr("repl.snapshots")
        return {
            # Page ids become str keys: the codec's dicts are str-keyed.
            "pages": {str(page_id): raw for page_id, raw in copy.pages.items()},
            "copy_start_lsn": copy.start_lsn,
            "copy_end_lsn": copy.end_lsn,
            "ship_start_lsn": ship_start,
            "master_lsn": db.log.master_lsn,
            "catalog": catalog_snapshot(db),
            "config": {
                "page_size": db.config.page_size,
                "mvcc_enabled": db.config.mvcc_enabled,
            },
            # Transactions open at seed time: their stamps may sit in
            # the dumped pages with no shipped record yet, so the
            # standby must seed its open-transaction set (snapshot-read
            # visibility) from here, not just from replay.
            "active_txns": [
                t.txn_id for t in db.txns.undecided_transactions()
            ],
        }

    def poll(
        self,
        name: str,
        from_lsn: int,
        max_bytes: int = DEFAULT_POLL_BYTES,
        wait_seconds: float = 0.0,
    ) -> dict:
        """Ship whole flushed frames starting at ``from_lsn``.

        Long-poll: with no shippable bytes and ``wait_seconds > 0``,
        parks on the log's flush notification before answering (one
        bounded wait — the standby loops).  A ``from_lsn`` the live log
        has truncated is served from the attached archive instead, so a
        badly lagging standby can still catch up without re-seeding.
        """
        log = self.db.log
        self.ack(name, max(from_lsn - 1, 0), _implicit=True)
        with self._cond:
            self._last_poll[name] = time.monotonic()
        data = self._shippable(from_lsn, max_bytes)
        if not data and wait_seconds > 0:
            log.wait_for_flush(from_lsn, wait_seconds)
            data = self._shippable(from_lsn, max_bytes)
        self.db.stats.incr("repl.polls")
        if data:
            self.db.stats.incr("repl.bytes_shipped", len(data))
        return {
            "base_lsn": from_lsn,
            "data": data,
            "flushed_lsn": log.flushed_lsn,
            "end_lsn": log.end_lsn,
        }

    def _shippable(self, from_lsn: int, max_bytes: int) -> bytes:
        log = self.db.log
        truncation = log.truncation_point
        if from_lsn < truncation:
            archive = self.db.archive
            if archive is None:
                raise LSNOutOfRangeError(
                    f"LSN {from_lsn} was truncated and no archive is "
                    "attached; the standby must re-seed"
                )
            upto = min(archive.end_lsn or from_lsn, from_lsn + max_bytes)
            chunk = archive.raw_slice(from_lsn, max(upto, from_lsn))
            return _clip_whole_frames(chunk, max_bytes)
        flushed = log.flushed_lsn
        if flushed < from_lsn:
            return b""
        return _clip_whole_frames(
            log.raw_slice(from_lsn, flushed + 1), max_bytes
        )

    def ack(self, name: str, lsn: int, _implicit: bool = False) -> dict:
        """Record that subscriber ``name`` has ``lsn`` durable; wakes
        synchronous commits waiting on that position."""
        with self._cond:
            previous = self._acked.get(name, 0)
            if lsn > previous:
                self._acked[name] = lsn
                self._cond.notify_all()
        if not _implicit:
            self.db.stats.incr("repl.acks")
        return {"acked_lsn": max(lsn, previous)}

    # -- primary-side state -------------------------------------------------

    def min_acked(self) -> int:
        with self._cond:
            return min(self._acked.values()) if self._acked else 0

    def status(self) -> dict:
        """Replication status: per-subscriber acked position and byte
        lag against the primary's durable prefix."""
        flushed = self.db.log.flushed_lsn
        now = time.monotonic()
        with self._cond:
            subs = {
                name: {
                    "acked_lsn": acked,
                    "lag_bytes": max(flushed - acked, 0),
                    "seconds_since_poll": (
                        round(now - self._last_poll[name], 3)
                        if name in self._last_poll
                        else None
                    ),
                }
                for name, acked in self._acked.items()
            }
        return {
            "flushed_lsn": flushed,
            "sync": self.sync,
            "recovery_state": self.db.recovery_state,
            "subscribers": subs,
        }

    # -- synchronous replication -------------------------------------------

    def commit_gate(self, commit_lsn: int, incarnation: "Incarnation") -> None:
        """Hold a commit acknowledgement until every subscriber has the
        commit record durable (sync mode with ≥1 subscriber; otherwise
        a no-op).  Called by the transaction manager *after* the
        transaction is locally durable and fully ended, so a raise here
        only withholds the acknowledgement — it never corrupts engine
        state.  Raises :class:`SyncReplicationTimeoutError` on timeout
        or once the committing transaction's ``incarnation`` is retired
        (a crash or ``close()``): the commit is locally durable but in
        doubt on the standby."""
        if not self.sync:
            return
        target = self.db.log.force_target(commit_lsn)
        deadline = time.monotonic() + self.sync_timeout_seconds
        with self._cond:
            if not self._acked:
                return  # no standby attached: sync degrades to async
            while True:
                if min(self._acked.values()) >= target:
                    return
                if incarnation.retired:
                    raise SyncReplicationTimeoutError(
                        f"commit at LSN {commit_lsn} is durable locally "
                        "but the primary crashed or closed before the standby "
                        "acknowledged it (in doubt)"
                    )
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self.db.stats.incr("repl.sync_timeouts")
                    raise SyncReplicationTimeoutError(
                        f"commit at LSN {commit_lsn} is durable locally "
                        f"but unacknowledged by a standby after "
                        f"{self.sync_timeout_seconds}s (in doubt)"
                    )
                self._cond.wait(min(remaining, 0.05))

    def primary_crashed(self) -> None:
        """Wake every gate waiter: its incarnation is retired, so the
        outcome is in doubt (called by ``Database.crash``)."""
        with self._cond:
            self._cond.notify_all()
