"""The two-phase-commit coordinator and its decision log.

Presumed abort (the protocol of the transaction-management literature
ARIES belongs to): the coordinator force-writes **only commit
decisions**.  No record means abort — a shard restarting with an
in-doubt PREPARE asks the coordinator, and any global transaction
without a durable ``COORD_COMMIT`` resolves to abort.  That asymmetry
is what keeps the single-shard fast path free: nothing is ever logged
for a transaction that never reached a commit decision, abort records
are advisory (unforced), and the ``COORD_END`` completion marker is
lazy — it only saves recovery from re-pushing a decision every
participant already applied.

The coordinator's log is an ordinary :class:`~repro.wal.log.LogManager`
(same CRC framing, group commit, crash/halt semantics as a shard's
WAL), so concurrent commit decisions coalesce into batched flushes and
the torture harness can pause a group-commit leader at the
``log.group_commit.before_flush`` failpoint and crash it inside the
flush window like any other log.
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable

from repro.common.errors import LogHaltedError
from repro.common.failpoints import FailpointRegistry
from repro.common.stats import StatsRegistry
from repro.server.client import DatabaseClient
from repro.wal.log import LogManager
from repro.wal.records import LogRecord, RecordKind

#: Decision values as they travel over the wire.
DECISION_COMMIT = "commit"
DECISION_ABORT = "abort"


class Coordinator:
    """Owns the decision log and the in-doubt bookkeeping of one cluster."""

    def __init__(
        self,
        name: str = "coord",
        stats: StatsRegistry | None = None,
        group_commit: bool = True,
        group_commit_max_wait_seconds: float = 0.001,
    ) -> None:
        self.name = name
        self.stats = stats or StatsRegistry(enabled=True)
        self.failpoints = FailpointRegistry()
        self.log = LogManager(self.stats, self.failpoints)
        self._group_commit = group_commit
        if group_commit:
            self.log.start_group_commit(
                max_wait_seconds=group_commit_max_wait_seconds
            )
        self._mutex = threading.Lock()
        self._seq = itertools.count(1)
        #: gid → participant shard ids, for every durable commit decision.
        self._committed: dict[str, list[int]] = {}
        #: Commit decisions not yet acknowledged by every participant.
        self._outstanding: dict[str, list[int]] = {}
        self._crashed = False

    # -- gid allocation ------------------------------------------------------

    def new_gid(self) -> str:
        with self._mutex:
            return f"{self.name}-{next(self._seq)}"

    # -- decisions -----------------------------------------------------------

    def decide_commit(self, gid: str, shards: list[int]) -> None:
        """Force the commit decision for ``gid`` — THE commit point of a
        global transaction.  Raises (``CommitNotDurableError`` /
        ``LogHaltedError``) if a coordinator crash wins the race, in
        which case no decision exists and presumed abort applies."""
        record = LogRecord(
            kind=RecordKind.COORD_COMMIT,
            txn_id=0,
            payload={"gid": gid, "shards": list(shards)},
            undoable=False,
        )
        lsn = self.log.append(record)
        self.log.force_for_commit(lsn)
        with self._mutex:
            self._committed[gid] = list(shards)
            self._outstanding[gid] = list(shards)
        self.stats.incr("coord.commit_decisions")

    def decide_abort(self, gid: str) -> None:
        """Record the abort decision — advisory only under presumed
        abort (unforced; its loss changes nothing)."""
        try:
            self.log.append(
                LogRecord(
                    kind=RecordKind.COORD_ABORT,
                    txn_id=0,
                    payload={"gid": gid},
                    undoable=False,
                )
            )
        except LogHaltedError:
            pass
        self.stats.incr("coord.abort_decisions")

    def note_ended(self, gid: str) -> None:
        """Every participant applied the commit — write the lazy END so
        recovery stops re-pushing this decision."""
        with self._mutex:
            if self._outstanding.pop(gid, None) is None:
                return
        try:
            self.log.append(
                LogRecord(
                    kind=RecordKind.COORD_END,
                    txn_id=0,
                    payload={"gid": gid},
                    undoable=False,
                )
            )
        except LogHaltedError:
            pass

    def decision_for(self, gid: str) -> str:
        """The durable outcome of ``gid``: ``commit`` iff a COORD_COMMIT
        survived, otherwise abort — **presumed**, which is exactly why
        only commit decisions are forced."""
        with self._mutex:
            return DECISION_COMMIT if gid in self._committed else DECISION_ABORT

    def outstanding_commits(self) -> dict[str, list[int]]:
        with self._mutex:
            return dict(self._outstanding)

    # -- crash / restart -----------------------------------------------------

    def crash(self) -> None:
        """Coordinator process failure: the unforced log tail and every
        in-memory table are lost; decision forces in flight resolve to
        ``CommitNotDurableError`` (their callers treat that as a
        definite abort)."""
        self.log.halt()
        self.log.crash()
        # A group-commit leader paused at a failpoint resumes as crashed.
        self.failpoints.disarm_all(crash_paused=True)
        with self._mutex:
            self._committed.clear()
            self._outstanding.clear()
        self._crashed = True
        self.stats.incr("coord.crashes")

    def restart(self) -> int:
        """Rebuild the decision tables from the durable log.  Returns
        the number of outstanding (END-less) commit decisions recovery
        must re-push to their participants."""
        self.log.resume()
        self.log.repair_tail()
        with self._mutex:
            self._committed.clear()
            self._outstanding.clear()
            highest = 0
            for record in self.log.records():
                gid = record.payload.get("gid", "")
                if record.kind is RecordKind.COORD_COMMIT:
                    shards = [int(s) for s in record.payload.get("shards", ())]
                    self._committed[gid] = shards
                    self._outstanding[gid] = shards
                elif record.kind is RecordKind.COORD_END:
                    self._outstanding.pop(gid, None)
                # COORD_ABORT carries no recovery obligation (presumed).
                tail = gid.rsplit("-", 1)[-1]
                if tail.isdigit():
                    highest = max(highest, int(tail))
            # Never reuse a gid that appears in the log.
            self._seq = itertools.count(highest + 1)
            pending = len(self._outstanding)
        self._crashed = False
        self.stats.incr("coord.restarts")
        return pending

    def recover(self, connect_shard: Callable[[int], DatabaseClient]) -> int:
        """Re-push every outstanding commit decision to its participants
        (idempotent shard-side).  Shards that cannot be reached keep the
        decision outstanding for the next attempt.  Returns the number
        of decisions fully resolved."""
        resolved = 0
        for gid, shards in self.outstanding_commits().items():
            all_acked = True
            for shard_id in shards:
                try:
                    client = connect_shard(shard_id)
                    try:
                        client.decide(gid, DECISION_COMMIT)
                    finally:
                        client.close()
                except Exception:  # noqa: BLE001,RPR005 - shard down: retry later
                    all_acked = False
                    self.stats.incr("coord.recover_push_failures")
            if all_acked:
                self.note_ended(gid)
                resolved += 1
        self.stats.incr("coord.recover_decisions_pushed", resolved)
        return resolved

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        self.log.stop_group_commit()
