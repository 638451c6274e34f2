"""The hot standby: continuous redo over a shipped WAL stream.

A standby is a full :class:`Database` instance whose state is produced
exclusively by replaying the primary's log — the §5 media-recovery
machinery run forever instead of once.  It seeds from a fuzzy image
copy, adopts the primary's LSN space (``rebase`` + byte-exact
``append_raw``), forces each shipped chunk to its own log *before*
acking, and applies redoable records through the same
:func:`~repro.recovery.redo.apply_record` primitive restart redo uses.

Reads are served as **consistent snapshots at the replay horizon**
(:mod:`repro.mvcc`): a reader holds the replay lock (freezing the
horizon), wraps a throwaway transaction around a
:class:`~repro.mvcc.snapshot.HorizonSnapshot` built from the set of
transactions still open in the shipped stream, and reads lock-free —
a standby read must never append to the log, or its LSN space would
diverge from the primary's, and now it never touches the lock table
either.  Multi-key reads under one replay-lock hold are torn-free: the
horizon cannot advance between the keys.  Because the stream is
applied record-at-a-time, a read can still land mid-SMO; readers
retry briefly on structural inconsistency, exactly the transient a
lagging replica is allowed to show.

Promotion is ordinary ARIES restart recovery: analysis from the last
*shipped* checkpoint (the standby tracks CKPT_BEGIN/CKPT_END pairs into
its master record), redo, undo of in-flight transactions — after which
the standby is a read-write primary and can host a
:class:`~repro.server.server.DatabaseServer`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace
from typing import Callable

from repro.common.config import DEFAULT_CONFIG, DatabaseConfig
from repro.common.errors import (
    PageNotFoundError,
    ReplicationError,
    ServerError,
    StandbyError,
    TreeInconsistentError,
)
from repro.db import Database
from repro.mvcc.snapshot import HorizonSnapshot
from repro.recovery.redo import apply_record
from repro.recovery.restart import RestartReport
from repro.replication.catalog import install_catalog
from repro.server.client import DatabaseClient
from repro.wal.records import NULL_LSN, RM_HEAP, RecordKind


class Standby:
    """One hot standby, driven by polling a primary's WAL shipper."""

    def __init__(
        self,
        connect: Callable[[], DatabaseClient],
        name: str = "standby",
        config: DatabaseConfig | None = None,
        poll_max_bytes: int = 256 * 1024,
        poll_wait_seconds: float = 0.2,
        reconnect_interval_seconds: float = 0.05,
    ) -> None:
        self._connect = connect
        self.name = name
        self._config = config
        self._poll_max_bytes = poll_max_bytes
        self._poll_wait_seconds = poll_wait_seconds
        self._reconnect_interval = reconnect_interval_seconds
        self.db: Database | None = None
        self._client: DatabaseClient | None = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        #: Serialises replay application against reads and promotion.
        self._replay_lock = threading.RLock()
        self._replay_lsn = NULL_LSN
        self._primary_flushed = 0
        #: Last local durable position reported to the primary.
        self._acked_lsn = 0
        self._pending_ckpt = NULL_LSN
        self._promoted = False
        self.last_error: str | None = None
        #: Transactions open at the replay horizon (stamps present,
        #: outcome unknown) — the standby's snapshot visibility set.
        #: Mutated only under the replay lock.
        self._open_txns: set[int] = set()

    # -- seeding -----------------------------------------------------------

    def seed(self) -> "Standby":
        """Fetch a snapshot from the primary and build the local
        database: restored pages, installed catalog, log rebased to the
        primary's LSN space."""
        client = self._connect()
        self._client = client
        client.request("repl_handshake", name=self.name)
        snap = client.request("repl_snapshot")
        config = self._config or replace(
            DEFAULT_CONFIG,
            page_size=int(snap["config"]["page_size"]),
            # Snapshot visibility judges the primary's version stamps;
            # a primary that never wrote them cannot be read that way.
            mvcc_enabled=bool(
                snap["config"].get("mvcc_enabled", DEFAULT_CONFIG.mvcc_enabled)
            ),
            group_commit=False,
            checkpoint_interval_records=0,
        )
        db = Database(config)
        max_page_id = 0
        for page_id_str, raw in snap["pages"].items():
            page_id = int(page_id_str)
            db.disk.restore_page(page_id, raw)
            max_page_id = max(max_page_id, page_id)
        db.disk.ensure_allocator_above(max_page_id)
        install_catalog(db, snap["catalog"])
        ship_start = int(snap["ship_start_lsn"])
        db.log.rebase(ship_start)
        if snap["master_lsn"]:
            db.log.write_master(int(snap["master_lsn"]))
        self.db = db
        self._replay_lsn = ship_start - 1
        # Everything up to the seed position is covered by the image
        # copy — the primary needs no ack for it.
        self._acked_lsn = db.log.flushed_lsn
        self._open_txns = set(snap.get("active_txns", []))
        db.stats.incr("standby.seeded")
        return self

    # -- the replay loop ---------------------------------------------------

    def start(self) -> "Standby":
        """Start the continuous-redo thread (seeds first if needed)."""
        if self.db is None:
            self.seed()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._replay_loop, name=f"standby-{self.name}", daemon=True
        )
        self._thread.start()
        return self

    def _replay_loop(self) -> None:
        assert self.db is not None
        while not self._stop.is_set():
            client = self._client
            if client is None:
                client = self._reconnect()
                if client is None:
                    return  # stopped while disconnected
            try:
                response = client.request(
                    "repl_poll",
                    name=self.name,
                    from_lsn=self.db.log.end_lsn,
                    max_bytes=self._poll_max_bytes,
                    wait_seconds=self._poll_wait_seconds,
                )
                self._primary_flushed = int(response["flushed_lsn"])
                data = response["data"]
                if data:
                    self._apply_chunk(int(response["base_lsn"]), data)
                    acked = self.db.log.flushed_lsn
                    client.request("repl_ack", name=self.name, lsn=acked)
                    self._acked_lsn = acked
            except (ServerError, OSError) as exc:
                # Connection lost (primary crashed or server went away):
                # drop the client and retry until stopped or promoted.
                self.last_error = f"{type(exc).__name__}: {exc}"
                self.db.stats.incr("standby.disconnects")
                try:
                    client.close()
                except Exception:  # noqa: BLE001,RPR005 - socket already dead; reconnect loop continues
                    pass
                self._client = None

    def _apply_chunk(self, base_lsn: int, data: bytes) -> None:
        """Adopt one shipped chunk: append byte-exact, force (durable
        before acked — the sync-replication contract), then redo."""
        db = self.db
        assert db is not None
        with self._replay_lock:
            records = db.log.append_raw(base_lsn, data)
            db.log.force()
            for record in records:
                # Track the set of transactions open at the horizon
                # (snapshot-read visibility).  COMMIT resolves a
                # transaction immediately; ROLLBACK does *not* — its
                # CLRs are still arriving, and until the END its stamps
                # must stay invisible.
                if record.txn_id:
                    if record.kind in (RecordKind.COMMIT, RecordKind.END):
                        self._open_txns.discard(record.txn_id)
                    else:
                        self._open_txns.add(record.txn_id)
                if record.is_redoable:
                    apply_record(db, record)
                    if record.rm == RM_HEAP and record.op == "format":
                        # Maintain heap views live so an instant-restart
                        # promotion need not rediscover them by fixing
                        # every page.
                        db.note_heap_page(
                            record.payload.get("table_id", 0), record.page_id
                        )
                elif record.kind is RecordKind.CKPT_BEGIN:
                    self._pending_ckpt = record.lsn
                elif record.kind is RecordKind.CKPT_END:
                    if self._pending_ckpt != NULL_LSN:
                        # A complete checkpoint arrived: promotion-time
                        # analysis may start here.
                        db.log.write_master(self._pending_ckpt)
                        self._pending_ckpt = NULL_LSN
                self._replay_lsn = record.lsn
            db.stats.incr("standby.records_replayed", len(records))

    def _reconnect(self) -> DatabaseClient | None:
        while not self._stop.is_set():
            try:
                client = self._connect()
                client.request("repl_handshake", name=self.name)
                self._client = client
                self.db.stats.incr("standby.reconnects")
                return client
            except (ServerError, OSError, ConnectionError):
                time.sleep(self._reconnect_interval)
        return None

    # -- observability -----------------------------------------------------

    @property
    def replay_lsn(self) -> int:
        """LSN of the last record applied (the read horizon)."""
        return self._replay_lsn

    @property
    def promoted(self) -> bool:
        return self._promoted

    def lag_bytes(self) -> int:
        """Bytes of durable primary log not yet durable here (against
        the last flush position the primary reported)."""
        if self.db is None:
            return 0
        return max(self._primary_flushed - self.db.log.flushed_lsn, 0)

    def status(self) -> dict:
        return {
            "name": self.name,
            "replay_lsn": self._replay_lsn,
            "local_flushed_lsn": self.db.log.flushed_lsn if self.db else 0,
            "primary_flushed_lsn": self._primary_flushed,
            "lag_bytes": self.lag_bytes(),
            "promoted": self._promoted,
            "last_error": self.last_error,
        }

    def wait_for_lsn(self, lsn: int, timeout: float = 5.0) -> bool:
        """Block until the replay horizon reaches ``lsn`` (byte
        position) — applied, durable, *and acknowledged* to the
        primary — or ``timeout`` elapses."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if (
                self.db is not None
                and self.db.log.flushed_lsn >= lsn
                and self._acked_lsn >= lsn
            ):
                return True
            time.sleep(0.002)
        return False

    # -- read-only service -------------------------------------------------

    def fetch(self, table: str, index: str, key: object, retries: int = 50):
        """Read-only fetch at the replay horizon (one-key snapshot)."""
        return self.snapshot_read(table, index, [key], retries=retries)[0]

    def snapshot_read(
        self, table: str, index: str, keys: list, retries: int = 50
    ) -> list:
        """Consistent multi-key read at the replay horizon.

        Holds the replay lock across *all* keys (the horizon cannot
        advance mid-read: no torn multi-key views) and reads through a
        :class:`HorizonSnapshot` — **zero locks**, never logs.  Falls
        back to the legacy locking path when MVCC is disabled.
        Record-at-a-time replay means a read can catch the tree
        mid-SMO; such structural transients are retried while replay
        advances.  Returns one row (or None) per key, in order.
        """
        db = self._require_db()
        if self._promoted:
            raise StandbyError(
                "standby was promoted; use the promoted database/server"
            )
        use_snapshot = db.config.mvcc_enabled
        last: Exception | None = None
        for _ in range(retries):
            with self._replay_lock:
                txn = db.begin()
                if use_snapshot:
                    txn.snapshot = HorizonSnapshot(self._open_txns)
                try:
                    rows = [db.fetch(txn, table, index, key) for key in keys]
                    if use_snapshot:
                        db.stats.incr("standby.snapshot_reads")
                    return rows
                except (TreeInconsistentError, PageNotFoundError) as exc:
                    last = exc
                finally:
                    if not use_snapshot:
                        db.locks.release_all(txn.txn_id)
                    db.txns.forget(txn.txn_id)
            time.sleep(0.002)  # let replay move past the SMO
        raise ReplicationError(
            f"standby read did not stabilise after {retries} retries"
        ) from last

    # -- failover ----------------------------------------------------------

    def promote(
        self, instant: bool = False, redo_workers: int = 2
    ) -> RestartReport:
        """Promote to read-write primary: stop replay, then recover.

        Both ways run the one restart procedure: analysis from the
        last shipped checkpoint, undo of in-flight transactions, and
        per-page redo along each dirty page's log chain.  By default
        (``restart()``) redo drains on this thread before promotion
        returns.  With ``instant=True`` the promoted database opens
        after analysis + undo and finishes redo on demand and in
        ``redo_workers`` background workers — failover time stops
        depending on how far replay was behind."""
        db = self._require_db()
        if self._promoted:
            raise StandbyError("standby is already promoted")
        self.stop()
        with self._replay_lock:
            if instant:
                report: RestartReport = db.instant_restart(
                    redo_workers=redo_workers
                )
            else:
                report = db.restart()
            self._promoted = True
        db.stats.incr("standby.promotions")
        return report

    def promote_to_server(
        self,
        server_config=None,
        listen: bool = False,
        instant: bool = False,
        redo_workers: int = 2,
    ):
        """Promote, then serve read-write traffic from the recovered
        database.  Returns ``(server, restart_report)``."""
        from repro.server.server import DatabaseServer, ServerConfig

        report = self.promote(instant=instant, redo_workers=redo_workers)
        server = DatabaseServer(
            self.db, server_config or ServerConfig()
        ).start(listen=listen)
        return server, report

    # -- lifecycle ---------------------------------------------------------

    def _require_db(self) -> Database:
        if self.db is None:
            raise StandbyError("standby is not seeded")
        return self.db

    def stop(self) -> None:
        """Stop the replay loop (idempotent; promotion calls this)."""
        self._stop.set()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=5.0)
        self._thread = None
        client, self._client = self._client, None
        if client is not None:
            try:
                client.close()
            except Exception:  # noqa: BLE001,RPR005 - socket already dead; stop() must finish
                pass

    def close(self) -> None:
        self.stop()
        if self.db is not None and not self._promoted:
            # A standby database never committed anything of its own;
            # closing it must not log (keep the LSN space clean) — just
            # turn group commit off.
            self.db.log.stop_group_commit()
            self.db._closed = True
