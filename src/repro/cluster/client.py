"""Cluster-aware client: one session per shard plus the 2PC driver.

Routing is per-key (:func:`~repro.cluster.routing.shard_for_key`); an
operation outside an explicit transaction goes straight to the owning
shard as autocommit — indistinguishable from talking to that shard
directly.  Inside a transaction, the client lazily ``begin``\\ s on each
shard it touches; at commit time:

- **0 or 1 shards touched** → plain single-shard commit.  No PREPARE,
  no coordinator record, no extra round trip: the zero-overhead path.
- **2+ shards touched** → two-phase commit.  Phase 1 runs on the
  *owning sessions* (a PREPARE vote is an operation on the session's
  open transaction); the coordinator then forces the commit decision
  (the commit point); phase 2 delivers ``decide`` to each participant
  best-effort — a participant that misses it is re-driven by
  coordinator recovery, because the forced decision record names it.

Any phase-1 failure, and any failure to make the decision durable,
resolves to a **definite abort** (:class:`TwoPhaseAbortError`): under
presumed abort no participant can have committed without a durable
coordinator decision.

Like :class:`~repro.server.client.DatabaseClient`, instances are not
thread-safe — one per worker thread.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.common.errors import (
    ServerError,
    SessionStateError,
    TwoPhaseAbortError,
)
from repro.cluster.coordinator import (
    DECISION_ABORT,
    DECISION_COMMIT,
    Coordinator,
)
from repro.cluster.routing import shard_for_key
from repro.server.client import DatabaseClient
from repro.txn.manager import VOTE_READ_ONLY, VOTE_YES


class ClusterClient:
    """One logical session against a sharded cluster."""

    def __init__(
        self,
        shard_clients: list[DatabaseClient],
        coordinator: Coordinator,
        key_column: str = "id",
    ) -> None:
        if not shard_clients:
            raise SessionStateError("a cluster needs at least one shard")
        self._shards = shard_clients
        self._coordinator = coordinator
        self.key_column = key_column
        self._txn_open = False
        #: Shard indexes with a remote transaction begun this txn.
        self._touched: list[int] = []
        #: Gid of the last two-phase commit this client drove (tests).
        self.last_gid: str | None = None

    # -- routing -------------------------------------------------------------

    def shard_for(self, key: object) -> int:
        return shard_for_key(key, len(self._shards))

    def _session(self, index: int) -> DatabaseClient:
        """The shard session, with the lazy per-shard BEGIN applied."""
        client = self._shards[index]
        if self._txn_open and index not in self._touched:
            client.begin()
            self._touched.append(index)
        return client

    def _routed(self, key: object) -> DatabaseClient:
        return self._session(self.shard_for(key))

    # -- transactions --------------------------------------------------------

    def begin(self) -> None:
        if self._txn_open:
            raise SessionStateError("transaction already open in this session")
        self._txn_open = True
        self._touched = []

    def rollback(self) -> None:
        if not self._txn_open:
            raise SessionStateError("no transaction open in this session")
        touched, self._touched = self._touched, []
        self._txn_open = False
        for index in touched:
            try:
                self._shards[index].rollback()
            except ServerError:
                pass  # already aborted shard-side, or shard gone

    def commit(self) -> None:
        if not self._txn_open:
            raise SessionStateError("no transaction open in this session")
        touched, self._touched = self._touched, []
        self._txn_open = False
        if not touched:
            return
        if len(touched) == 1:
            # Single-shard: an ordinary commit, zero 2PC overhead.
            self._shards[touched[0]].commit()
            return
        self._commit_two_phase(touched)

    @contextmanager
    def transaction(self) -> Iterator[None]:
        self.begin()
        try:
            yield
        except BaseException:
            try:
                self.rollback()
            except ServerError:
                pass
            raise
        else:
            self.commit()

    # -- two-phase commit ----------------------------------------------------

    def _commit_two_phase(self, touched: list[int]) -> None:
        gid = self._coordinator.new_gid()
        self.last_gid = gid
        participants: list[int] = []
        # Phase 1: collect votes on the owning sessions.
        for index in touched:
            try:
                vote = self._shards[index].prepare(gid)
            except Exception as exc:  # noqa: BLE001 - any failure is a no vote
                self._abort_global(gid, touched, participants, failed=index)
                raise TwoPhaseAbortError(
                    f"global transaction {gid} aborted: shard {index} "
                    f"failed to prepare ({exc})"
                ) from exc
            if vote == VOTE_YES:
                participants.append(index)
            elif vote != VOTE_READ_ONLY:
                self._abort_global(gid, touched, participants, failed=index)
                raise TwoPhaseAbortError(
                    f"global transaction {gid} aborted: shard {index} "
                    f"voted {vote!r}"
                )
        if not participants:
            return  # every branch was read-only; nothing to decide
        if len(participants) == 1:
            # Everyone else was read-only: the lone writer can commit
            # directly — its own commit record is the decision.
            self._shards[participants[0]].decide(gid, DECISION_COMMIT)
            return
        # The commit point: force the decision on the coordinator log.
        try:
            self._coordinator.decide_commit(gid, participants)
        except Exception as exc:  # noqa: BLE001 - not durable ⇒ presumed abort
            self._abort_global(gid, [], participants)
            raise TwoPhaseAbortError(
                f"global transaction {gid} aborted: coordinator decision "
                f"not durable ({exc})"
            ) from exc
        # Phase 2 (best effort): recovery re-drives any miss.
        complete = True
        for index in participants:
            try:
                self._shards[index].decide(gid, DECISION_COMMIT)
            except Exception:  # noqa: BLE001,RPR005 - shard will learn at recovery
                complete = False
        if complete:
            self._coordinator.note_ended(gid)

    def _abort_global(
        self,
        gid: str,
        touched: list[int],
        participants: list[int],
        failed: int | None = None,
    ) -> None:
        """Presumed abort cleanup: tell prepared participants to abort,
        roll back branches never prepared.  All best effort — a branch
        that cannot be reached resolves to abort at recovery anyway."""
        self._coordinator.decide_abort(gid)
        for index in participants:
            try:
                self._shards[index].decide(gid, DECISION_ABORT)
            except Exception:  # noqa: BLE001,RPR005 - 2PC decision already durable; shard learns at recovery
                pass
        for index in touched:
            if index in participants or index == failed:
                continue
            try:
                self._shards[index].rollback()
            except Exception:  # noqa: BLE001,RPR005 - 2PC decision already durable; shard learns at recovery
                pass
        # The failing shard may still hold its (unprepared) branch open.
        if failed is not None:
            try:
                self._shards[failed].rollback()
            except Exception:  # noqa: BLE001,RPR005 - 2PC decision already durable; shard learns at recovery
                pass

    # -- data ops ------------------------------------------------------------

    def insert(self, table: str, row: dict) -> dict:
        return self._routed(row[self.key_column]).insert(table, row)

    def fetch(self, table: str, index: str, key: object, isolation: str = "rr"):
        return self._routed(key).fetch(table, index, key, isolation=isolation)

    def delete_by_key(self, table: str, index: str, key: object) -> dict:
        return self._routed(key).delete_by_key(table, index, key)

    def fetch_prefix(self, table: str, index: str, prefix: object):
        """Partial-key fetch cannot be routed (the full key is what
        hashes): fan out and return the match with the smallest key."""
        best = None
        for index_ in range(len(self._shards)):
            row = self._session(index_).fetch_prefix(table, index, prefix)
            if row is None:
                continue
            if best is None or self._row_key(row) < self._row_key(best):
                best = row
        return best

    def scan(
        self,
        table: str,
        index: str,
        low: object | None = None,
        high: object | None = None,
        limit: int | None = None,
        **kwargs: object,
    ) -> list[dict]:
        """Fan out to every shard and merge (sorted by the key column
        when present, so the result reads like a single-node scan)."""
        rows: list[dict] = []
        for index_ in range(len(self._shards)):
            rows.extend(
                self._session(index_).scan(
                    table, index, low=low, high=high, limit=limit, **kwargs
                )
            )
        try:
            rows.sort(key=self._row_key)
        except TypeError:
            pass  # mixed key types: leave shard order
        if limit is not None:
            rows = rows[:limit]
        return rows

    def _row_key(self, row: dict):
        return row.get(self.key_column)

    # -- admin ---------------------------------------------------------------

    def create_table(self, name: str) -> None:
        for client in self._shards:
            client.create_table(name)

    def create_index(
        self, table: str, name: str, column: str, unique: bool = False
    ) -> None:
        for client in self._shards:
            client.create_index(table, name, column=column, unique=unique)

    def ping(self) -> bool:
        return all(client.ping() for client in self._shards)

    def server_stats(self, prefix: str = "") -> dict[str, int]:
        """Numeric stats summed across the shards."""
        merged: dict[str, int] = {}
        for client in self._shards:
            for key, value in client.server_stats(prefix).items():
                merged[key] = merged.get(key, 0) + value
        return merged

    def server_status(self) -> dict:
        states = [client.server_status() for client in self._shards]
        recovering = any(s.get("recovering") for s in states)
        return {
            "state": "recovering" if recovering else "steady",
            "recovering": recovering,
            "shards": states,
        }

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        for client in self._shards:
            try:
                client.close()
            except Exception:  # noqa: BLE001,RPR005 - a dead shard must not block close
                pass

    @property
    def closed(self) -> bool:
        return any(client.closed for client in self._shards)

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
