"""Seeded crash-and-fault torture harness.

One round = one seeded random story: a database runs a random workload
while a seeded :class:`~repro.storage.faults.FaultInjector` tears page
writes, throws transient/permanent I/O errors, and schedules WAL-tail
loss; the database crashes (either on its own, when a permanent fault
escalates, or because the schedule says so); restart recovers; and the
round verifies the recovery invariants:

1. **Committed durable** — every key whose transaction's ``commit()``
   returned before the crash is present after restart.
2. **Uncommitted absent** — no key from an in-flight or rolled-back
   transaction survives.
3. **Structure valid** — every index passes ``check_structure`` and the
   heap agrees with the index.
4. **Restart idempotent** — a second crash+restart (no new faults)
   reproduces exactly the same state; on odd seeds that restart is an
   instant restart drained by background redo workers.

Determinism: each round derives every random decision (workload *and*
fault schedule) from its seed, so a failing seed replays exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from repro.common.config import DatabaseConfig
from repro.common.errors import (
    DeadlockError,
    KeyNotFoundError,
    LockTimeoutError,
    PermanentIOError,
    UniqueKeyViolationError,
)
from repro.analysis.lockgraph import LatchOrderMonitor
from repro.analysis.walcheck import check_log
from repro.db import Database
from repro.storage.faults import FaultInjector, FaultPlan
from repro.storage.latch import get_latch_monitor, set_latch_monitor


def enable_lockgraph() -> LatchOrderMonitor:
    """Install a fresh latch-order monitor scoped to the round's database.

    Every round then doubles as a deadlock-freedom proof: the monitor
    records the acquired-while-held graph over the database's whole
    lifetime (crash/restart included) and the round asserts it stays
    acyclic over the blocking edges.  The scope is one database, not
    the process: page-id latch names are only meaningful within a
    single database, so merging graphs across rounds would fabricate
    edges (page 6 of one tree shape versus page 6 of another) and with
    them false cycles.  Call this *before* constructing the round's
    Database — its latch tables capture the installed monitor at
    construction, which is what keeps other databases' (leaked
    background) threads out of this round's graph."""
    monitor = LatchOrderMonitor()
    set_latch_monitor(monitor)
    return monitor


def _check_analysis(db: Database, seed: int, label: str) -> None:
    """End-of-round analysis gates: the surviving log verifies clean
    and the latch-order graph stays acyclic."""
    wal = check_log(db.log)
    _check(
        wal.ok,
        seed,
        f"{label}: walcheck failed: "
        + "; ".join(f.format() for f in wal.findings[:5]),
    )
    monitor = get_latch_monitor()
    if monitor is not None:
        monitor.assert_acyclic()


@dataclass(frozen=True)
class TortureSpec:
    """Parameters of one torture round."""

    seed: int = 0
    page_size: int = 1024
    buffer_pool_pages: int = 48
    initial_keys: int = 30
    key_space: int = 120
    txn_count: int = 10
    max_ops_per_txn: int = 6
    commit_probability: float = 0.6
    flush_probability: float = 0.35
    checkpoint_probability: float = 0.15
    force_log_probability: float = 0.5
    torn_write_probability: float = 0.08
    transient_read_probability: float = 0.03
    transient_write_probability: float = 0.03
    permanent_probability: float = 0.01
    wal_tail_loss_probability: float = 0.5

    def fault_plan(self) -> FaultPlan:
        return FaultPlan(
            seed=self.seed ^ 0x5EED_FA17,
            torn_write_probability=self.torn_write_probability,
            transient_read_probability=self.transient_read_probability,
            transient_write_probability=self.transient_write_probability,
            permanent_read_probability=self.permanent_probability,
            permanent_write_probability=self.permanent_probability,
            wal_tail_loss_probability=self.wal_tail_loss_probability,
        )


@dataclass
class TortureReport:
    """Outcome of one round (all invariants already asserted)."""

    seed: int
    committed_keys: int = 0
    txns_committed: int = 0
    txns_rolled_back: int = 0
    io_panic: bool = False
    fault_counters: dict[str, int] = field(default_factory=dict)
    log_tail_bytes_discarded: int = 0
    pages_rebuilt: int = 0


class TortureInvariantError(AssertionError):
    """A post-restart invariant failed; the message names the seed."""


def _check(condition: bool, seed: int, message: str) -> None:
    if not condition:
        raise TortureInvariantError(f"seed {seed}: {message}")


def _verify_state(db: Database, committed: set[int], seed: int, label: str) -> None:
    _check(db.verify_indexes() == {}, seed, f"{label}: index structure invalid")
    txn = db.begin()
    survivors = {row["id"] for _, row in db.scan(txn, "t", "by_id")}
    db.commit(txn)
    missing = committed - survivors
    extra = survivors - committed
    _check(
        not missing, seed, f"{label}: committed keys lost after restart: {sorted(missing)}"
    )
    _check(
        not extra, seed, f"{label}: uncommitted keys survived restart: {sorted(extra)}"
    )
    txn = db.begin()
    heap_keys = {
        db.tables["t"].fetch_row(txn, rid, lock=False)["id"]
        for rid in db.tables["t"].heap.scan_rids()
    }
    db.commit(txn)
    _check(heap_keys == committed, seed, f"{label}: heap disagrees with index")


def run_torture_round(spec: TortureSpec) -> TortureReport:
    """Run one seeded fault/crash schedule and assert every invariant."""
    rng = random.Random(spec.seed)
    injector = FaultInjector(spec.fault_plan())
    # The round is single-threaded, so any lock wait is a self-block
    # that can only end in a timeout — keep it short.
    config = DatabaseConfig(
        page_size=spec.page_size,
        buffer_pool_pages=spec.buffer_pool_pages,
        lock_timeout_seconds=0.05,
        latch_timeout_seconds=5.0,
    )
    report = TortureReport(seed=spec.seed)
    enable_lockgraph()

    # Build the schema and the seed rows before arming any fault: the
    # round's story starts from a known-good committed state.
    injector.disarm()
    db = Database(config, fault_injector=injector)
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    committed: set[int] = set()
    txn = db.begin()
    for key in range(0, spec.initial_keys * 3, 3):
        db.insert(txn, "t", {"id": key, "val": "seed"})
        committed.add(key)
    db.commit(txn)
    injector.arm()

    open_txns: list = []
    pending: dict[int, dict[int, str]] = {}
    crashed = False

    for _ in range(spec.txn_count):
        if crashed:
            break
        try:
            action = rng.random()
            if action < 0.55 or not open_txns:
                txn = db.begin()
                open_txns.append(txn)
                pending[txn.txn_id] = {}
                try:
                    for _ in range(rng.randint(1, spec.max_ops_per_txn)):
                        key = rng.randrange(spec.key_space)
                        # Statement savepoint: a failed statement must
                        # not leave partial effects (e.g. a heap row
                        # whose index insert hit a unique violation).
                        db.savepoint(txn, "stmt")
                        try:
                            if rng.random() < 0.6:
                                db.insert(txn, "t", {"id": key, "val": "w"})
                                pending[txn.txn_id][key] = "ins"
                            else:
                                db.delete_by_key(txn, "t", "by_id", key)
                                pending[txn.txn_id][key] = "del"
                        except (UniqueKeyViolationError, KeyNotFoundError):
                            db.rollback_to_savepoint(txn, "stmt")
                except (DeadlockError, LockTimeoutError):
                    # A single-threaded schedule can self-block on
                    # another open transaction's locks.
                    open_txns.remove(txn)
                    pending.pop(txn.txn_id)
                    db.rollback(txn)
                    report.txns_rolled_back += 1
            elif action < 0.8:
                txn = open_txns.pop(rng.randrange(len(open_txns)))
                db.commit(txn)
                report.txns_committed += 1
                for key, op in pending.pop(txn.txn_id).items():
                    if op == "ins":
                        committed.add(key)
                    else:
                        committed.discard(key)
            else:
                txn = open_txns.pop(rng.randrange(len(open_txns)))
                db.rollback(txn)
                pending.pop(txn.txn_id)
                report.txns_rolled_back += 1
            if rng.random() < spec.flush_probability:
                dirty = list(db.buffer.dirty_page_table())
                for page_id in rng.sample(dirty, k=min(len(dirty), 3)):
                    db.flush_page(page_id)
            if rng.random() < spec.checkpoint_probability:
                db.checkpoint()
        except PermanentIOError:
            # The buffer pool escalated a hard fault: the database
            # already crashed itself cleanly.
            crashed = True
            report.io_panic = True

    if not crashed:
        if rng.random() < spec.force_log_probability:
            db.log.force()  # make in-flight work durable → undo path
        db.crash()

    report.fault_counters = dict(injector.counters)

    # Post-crash, the storage keeps its damage but stops producing new
    # hard faults (transient read flakiness stays live, exercising the
    # retry path during recovery).
    injector.enter_recovery_mode()
    restart_report = db.restart()
    report.log_tail_bytes_discarded = restart_report.log_tail_bytes_discarded
    report.pages_rebuilt = restart_report.scrub.pages_rebuilt
    report.committed_keys = len(committed)
    _verify_state(db, committed, spec.seed, "first restart")

    # Idempotency: crash again immediately (no new faults scheduled in
    # recovery mode) and recover to exactly the same state.  Odd seeds
    # recover with background redo workers instead of the caller's
    # thread, so the drain runs under the same fault schedules.
    db.crash()
    if spec.seed % 2:
        governor = db.instant_restart(redo_workers=2).governor
        _check(
            governor.wait_drained(timeout=30.0),
            spec.seed,
            f"second restart did not drain: {governor.progress()}",
        )
    else:
        db.restart()
    _verify_state(db, committed, spec.seed, "second restart")
    _check_analysis(db, spec.seed, "torture round")
    return report


def run_torture(
    seeds: range, base: TortureSpec | None = None
) -> list[TortureReport]:
    """Run one round per seed; returns the reports (raises on the first
    invariant violation)."""
    base = base or TortureSpec()
    return [run_torture_round(replace(base, seed=seed)) for seed in seeds]


# -- multi-session client workload mode ------------------------------------
#
# The single-threaded rounds above drive the engine in-process.  This
# mode drives it the way production would: a DatabaseServer with group
# commit enabled, several concurrent client sessions issuing autocommit
# inserts/deletes over the loopback transport, and a crash landed
# *while commits are parked between group-commit enqueue and flush* —
# the exact window the batched force opens up.  The invariant is the
# durability contract of group commit:
#
#   * every ACKED commit (the client got a success response) survives
#     restart;
#   * every commit the server answered with CommitNotDurableError was
#     never acknowledged and is in-doubt: usually the crash beat the
#     batched flush and recovery rolled it back, but the flush (or a
#     restart racing the commit) may have made it durable anyway;
#   * responses that never arrived (connection died mid-request) are
#     indeterminate, like any networked database's in-doubt window.
#
# Each session owns a disjoint key partition (key % sessions), so its
# acked history determines each key's expected state exactly.


@dataclass(frozen=True)
class MultiSessionSpec:
    """Parameters of one multi-session torture round."""

    seed: int = 0
    sessions: int = 4
    requests_per_session: int = 24
    key_space: int = 160
    initial_keys: int = 20
    page_size: int = 1024
    buffer_pool_pages: int = 64
    insert_fraction: float = 0.65
    crash_mode: str = "held_flush"
    """``held_flush``: pin a group commit's leader, let commits park
    behind it, crash into the take→flush window.  ``racing``: crash at a
    random moment with group commit live.  ``graceful``: no crash —
    drain, shut down, then crash+restart to check the final checkpoint
    made everything durable."""
    crash_after_requests: int = 40
    """Total acked requests after which the trigger pulls."""
    log_flush_latency_seconds: float = 0.0
    """Price of one log flush.  Coalescing waits at most one flush's
    price, so an unpriced round forces each commit at once, and only a
    priced one shows group commit's saving."""
    snapshot_readers: int = 0
    """Concurrent snapshot-reader sessions racing the writers: each
    repeatedly opens a snapshot transaction, reads the same key twice,
    and asserts the two answers agree — a snapshot must be stable no
    matter what the writers commit in between.  A reader that hits the
    crash simply stops; the round asserts zero torn reads at the end."""


@dataclass
class MultiSessionReport:
    """Outcome of one multi-session round (invariants already asserted)."""

    seed: int
    crash_mode: str
    acked_requests: int = 0
    lost_commits: int = 0
    indeterminate_keys: int = 0
    parked_at_crash: int = 0
    flushes_saved: int = 0
    commits: int = 0
    """Engine-side committed transactions over the whole round."""
    sync_forces: int = 0
    """Synchronous log I/Os over the whole round (the coalescing
    assertion compares this against ``commits``)."""
    snapshot_reads: int = 0
    """Double-reads completed by the snapshot readers (each one a
    stability check that passed)."""


class _SessionWorker:
    """One client session's thread: issues ops, tracks acked state."""

    def __init__(self, worker_id: int, spec: MultiSessionSpec, server) -> None:
        self.worker_id = worker_id
        self.spec = spec
        self.server = server
        self.rng = random.Random(spec.seed * 1000003 + worker_id)
        #: Last *acknowledged* state of every key this worker owns.
        self.state: dict[int, bool] = {}
        #: Keys whose state is in doubt (response never arrived).
        self.unknown: set[int] = set()
        self.acked = 0
        self.lost = 0

    def run(self) -> None:
        from repro.common.errors import (
            CommitNotDurableError,
            DatabaseClosedError,
            LogHaltedError,
            ServerError,
            ServerShutdownError,
        )

        try:
            client = self.server.connect_loopback()
        except Exception:  # noqa: BLE001,RPR005 - server already stopping
            return
        spec = self.spec
        try:
            for _ in range(spec.requests_per_session):
                key = (
                    self.rng.randrange(spec.key_space // spec.sessions) * spec.sessions
                    + self.worker_id
                )
                inserting = self.rng.random() < spec.insert_fraction
                try:
                    if inserting:
                        client.insert("t", {"id": key, "val": f"w{self.worker_id}"})
                        self.state[key] = True
                    else:
                        client.delete_by_key("t", "by_id", key)
                        self.state[key] = False
                    self.unknown.discard(key)
                    self.acked += 1
                except UniqueKeyViolationError:
                    # Server proved the key present — an ack in itself.
                    self.state[key] = True
                    self.unknown.discard(key)
                    self.acked += 1
                except KeyNotFoundError:
                    self.state[key] = False
                    self.unknown.discard(key)
                    self.acked += 1
                except LogHaltedError:  # noqa: RPR005 - outcome recorded as lost
                    # Definite NO: the append itself was refused, so no
                    # commit record exists to survive.
                    self.lost += 1
                except CommitNotDurableError:  # noqa: RPR005 - outcome recorded as in-doubt
                    # Almost always the record died with the volatile
                    # tail — but a crash can land *after* the batched
                    # flush covered it (or race a commit straddling
                    # restart), so the contract is in-doubt, not no.
                    self.lost += 1
                    self.unknown.add(key)
                except (DatabaseClosedError, ServerShutdownError):
                    return  # rejected before execution: no state change
                except (ServerError, DeadlockError, LockTimeoutError):
                    # In doubt: the op may or may not have committed
                    # before the line (or the engine) went down.
                    self.unknown.add(key)
                    if client.closed:
                        return
                except Exception:  # noqa: BLE001,RPR005 - post-crash wreckage
                    # Anything else is in doubt too; stop issuing.
                    self.unknown.add(key)
                    return
        finally:
            try:
                client.close()
            except Exception:  # noqa: BLE001,RPR005 - client already torn down with the crash
                pass


class _SnapshotReader:
    """One snapshot-reader session racing the writers.

    Every iteration opens a snapshot transaction and reads one key
    twice; the answers (presence *and* value) must agree — writers
    committing in between must be invisible inside the snapshot.
    Disagreements are counted in ``torn`` and asserted zero by the
    round.  Reads take zero locks, so a reader can never deadlock a
    writer (or be chosen as a victim)."""

    def __init__(self, reader_id: int, spec: MultiSessionSpec, server) -> None:
        self.reader_id = reader_id
        self.spec = spec
        self.server = server
        self.rng = random.Random(spec.seed * 69997 + reader_id)
        self.stop = False
        self.reads = 0
        self.torn = 0

    def run(self) -> None:
        from repro.common.errors import ServerError

        try:
            client = self.server.connect_loopback()
        except Exception:  # noqa: BLE001,RPR005 - server already stopping
            return
        spec = self.spec
        try:
            while not self.stop:
                key = self.rng.randrange(spec.key_space)
                try:
                    with client.snapshot():
                        first = client.fetch(
                            "t", "by_id", key, isolation="snapshot"
                        )
                        second = client.fetch(
                            "t", "by_id", key, isolation="snapshot"
                        )
                    if first != second:
                        self.torn += 1
                    self.reads += 1
                except ServerError:
                    return  # engine crashed / server stopping
                except Exception:  # noqa: BLE001,RPR005 - post-crash wreckage
                    return
        finally:
            try:
                client.close()
            except Exception:  # noqa: BLE001,RPR005 - client already torn down with the crash
                pass


def _join_all(threads: list, seed: int, timeout: float = 30.0) -> None:
    import time

    deadline = time.monotonic() + timeout
    for thread in threads:
        thread.join(timeout=max(deadline - time.monotonic(), 0.1))
        _check(not thread.is_alive(), seed, "session worker thread wedged")


#: Where a group commit's leader has taken a batch and not yet forced it.
_FLUSH_WINDOW = "log.group_commit.before_flush"


def run_multisession_round(spec: MultiSessionSpec) -> MultiSessionReport:
    """One multi-session group-commit durability round."""
    import threading
    import time

    from repro.server.server import DatabaseServer, ServerConfig

    config = DatabaseConfig(
        page_size=spec.page_size,
        buffer_pool_pages=spec.buffer_pool_pages,
        group_commit=True,
        group_commit_max_wait_seconds=0.001,
        log_flush_latency_seconds=spec.log_flush_latency_seconds,
        lock_timeout_seconds=1.0,
        latch_timeout_seconds=5.0,
        # Paced background GC races the client sessions, so the
        # lockgraph monitor sees GC's latch orderings under load.
        mvcc_gc_interval_seconds=0.02,
    )
    enable_lockgraph()
    db = Database(config)
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    txn = db.begin()
    initial: list[int] = []
    for i in range(spec.initial_keys):
        key = (i * 7) % spec.key_space
        if key not in initial:
            db.insert(txn, "t", {"id": key, "val": "seed"})
            initial.append(key)
    db.commit(txn)

    server = DatabaseServer(
        db,
        ServerConfig(
            workers=spec.sessions,
            queue_depth=spec.sessions * 4,
            request_timeout_seconds=10.0,
            drain_timeout_seconds=10.0,
        ),
    ).start(listen=False)

    workers = [_SessionWorker(i, spec, server) for i in range(spec.sessions)]
    for worker in workers:
        for key in initial:
            if key % spec.sessions == worker.worker_id:
                worker.state[key] = True
    threads = [threading.Thread(target=worker.run) for worker in workers]

    def total_acked() -> int:
        return sum(w.acked for w in workers)

    if spec.crash_mode == "held_flush":
        # Armed before any request is sent, so the rendezvous cannot be
        # missed however fast the sessions run.  Only a server thread's
        # flush pauses: the paced GC's purge commits too, and a crash on
        # its commit alone would lose no client write.
        db.failpoints.arm_pause(
            _FLUSH_WINDOW,
            when=lambda: total_acked() >= spec.crash_after_requests
            and threading.current_thread().name.startswith("db-"),
        )
    for thread in threads:
        thread.start()
    readers = [
        _SnapshotReader(i, spec, server) for i in range(spec.snapshot_readers)
    ]
    reader_threads = [threading.Thread(target=r.run) for r in readers]
    for thread in reader_threads:
        thread.start()

    report = MultiSessionReport(seed=spec.seed, crash_mode=spec.crash_mode)
    stats_before = db.stats.snapshot()

    def stop_readers() -> None:
        for reader in readers:
            reader.stop = True
        _join_all(reader_threads, spec.seed)

    if spec.crash_mode == "graceful":
        _join_all(threads, spec.seed)
        stop_readers()
        _check(server.shutdown(drain=True), spec.seed, "graceful drain timed out")
        db.crash()
    elif spec.crash_mode == "held_flush":
        # The first leader after the warm-up stopped with its batch
        # taken (see the pause armed above): that batch's committers —
        # the leader's own commit among them — are parked in the
        # take→flush window, later ones queue behind them, and the
        # crash — which also resumes the leader, as crashed — lands on
        # all of them.
        try:
            db.failpoints.wait_until_paused(_FLUSH_WINDOW, timeout=10.0)
        except TimeoutError:
            pass  # the workload ended below the warm-up count: nothing parked
        report.parked_at_crash = db.log.group_commit_parked
        db.crash()
        _join_all(threads, spec.seed)
        stop_readers()
        server.abort()
    elif spec.crash_mode == "racing":
        deadline = time.monotonic() + 5.0
        while total_acked() < spec.crash_after_requests and time.monotonic() < deadline:
            time.sleep(0.0005)
        report.parked_at_crash = db.log.group_commit_parked
        db.crash()
        _join_all(threads, spec.seed)
        stop_readers()
        server.abort()
    else:
        raise ValueError(f"unknown crash_mode {spec.crash_mode!r}")

    report.snapshot_reads = sum(r.reads for r in readers)
    torn_reads = sum(r.torn for r in readers)
    _check(
        torn_reads == 0,
        spec.seed,
        f"{spec.crash_mode}: {torn_reads} torn snapshot double-reads "
        f"(of {report.snapshot_reads})",
    )

    db.restart()
    diff = db.stats.diff(stats_before)
    report.acked_requests = total_acked()
    report.lost_commits = sum(w.lost for w in workers)
    report.indeterminate_keys = len(set().union(*(w.unknown for w in workers)))
    report.flushes_saved = diff.get("log.group_commit_flushes_saved", 0)
    snap = db.stats.snapshot()
    report.commits = snap.get("txn.committed", 0)
    report.sync_forces = snap.get("log.sync_forces", 0)

    _check(
        db.verify_indexes() == {},
        spec.seed,
        f"{spec.crash_mode}: index structure invalid after restart",
    )
    txn = db.begin()
    survivors = {row["id"] for _, row in db.scan(txn, "t", "by_id")}
    db.commit(txn)
    for worker in workers:
        for key, present in worker.state.items():
            if key in worker.unknown:
                continue
            if present:
                _check(
                    key in survivors,
                    spec.seed,
                    f"{spec.crash_mode}: acked key {key} (session "
                    f"{worker.worker_id}) lost after restart",
                )
            else:
                _check(
                    key not in survivors,
                    spec.seed,
                    f"{spec.crash_mode}: deleted/never-committed key {key} "
                    f"(session {worker.worker_id}) survived restart",
                )
    # Keys no session owns state for must not materialize out of thin air.
    known = set().union(*(set(w.state) | w.unknown for w in workers))
    ghosts = survivors - known
    _check(not ghosts, spec.seed, f"{spec.crash_mode}: ghost keys {sorted(ghosts)}")

    # Idempotency: crash+restart again reproduces the same state.
    db.crash()
    db.restart()
    txn = db.begin()
    survivors_again = {row["id"] for _, row in db.scan(txn, "t", "by_id")}
    db.commit(txn)
    _check(
        survivors_again == survivors,
        spec.seed,
        f"{spec.crash_mode}: second restart diverged",
    )
    if spec.crash_mode == "graceful":
        server.abort()
    _check_analysis(db, spec.seed, f"multisession {spec.crash_mode}")
    db.close()
    return report


def run_multisession(
    seeds: range, base: MultiSessionSpec | None = None
) -> list[MultiSessionReport]:
    """One multi-session round per seed, cycling crash modes so a sweep
    covers held-flush, racing, and graceful shutdowns."""
    base = base or MultiSessionSpec()
    modes = ("held_flush", "racing", "graceful")
    return [
        run_multisession_round(
            replace(base, seed=seed, crash_mode=modes[seed % len(modes)])
        )
        for seed in seeds
    ]


# -- failover torture mode ---------------------------------------------------
#
# The multi-session rounds above verify the durability contract against
# a *restart* of the same database.  This mode verifies it against a
# *failover*: a hot standby replicates the primary over the loopback
# wire protocol while the client workload runs, the primary crashes
# mid-load (including inside the group-commit flush window), the
# standby is promoted, and the promoted database must agree exactly
# with the acked commit set:
#
#   * every ACKED commit is visible on the promoted database;
#   * every commit answered with CommitNotDurableError is in-doubt
#     (never acknowledged; usually rolled back);
#   * in-doubt responses (the line died mid-request) may go either way;
#   * in ``sync`` mode the standby is promoted *without* draining the
#     dead primary's remaining WAL — the synchronous commit gate alone
#     must guarantee every acked commit already reached the standby.
#
# In the async modes the standby first drains the primary's durable
# prefix (the primary process is "dead" but its stable log is
# readable — exactly the real-world drain from the dead node's disk),
# after which the promoted state must equal what restarting the old
# primary itself would have produced.


@dataclass(frozen=True)
class FailoverSpec:
    """Parameters of one failover torture round."""

    seed: int = 0
    sessions: int = 4
    requests_per_session: int = 24
    key_space: int = 160
    initial_keys: int = 20
    page_size: int = 1024
    buffer_pool_pages: int = 64
    insert_fraction: float = 0.65
    crash_mode: str = "held_flush"
    """``held_flush``: pin a group commit's leader, crash into the
    take→flush window, drain, promote.  ``racing``: crash at a random
    moment with group commit live, drain, promote.  ``sync``: synchronous
    replication, crash racing, promote with NO drain — the gate is the
    only thing standing between an acked commit and oblivion."""
    crash_after_requests: int = 30


@dataclass
class FailoverReport:
    """Outcome of one failover round (invariants already asserted)."""

    seed: int
    crash_mode: str
    sync: bool = False
    acked_requests: int = 0
    lost_commits: int = 0
    indeterminate_keys: int = 0
    parked_at_crash: int = 0
    records_replayed: int = 0
    txns_rolled_back_at_promotion: int = 0
    primary_agreement_checked: bool = False


def run_failover_round(spec: FailoverSpec) -> FailoverReport:
    """One primary-crash → standby-promotion round."""
    import threading
    import time

    from repro.replication import Standby
    from repro.server.server import DatabaseServer, ServerConfig

    sync = spec.crash_mode == "sync"
    config = DatabaseConfig(
        page_size=spec.page_size,
        buffer_pool_pages=spec.buffer_pool_pages,
        group_commit=True,
        group_commit_max_wait_seconds=0.001,
        lock_timeout_seconds=1.0,
        latch_timeout_seconds=5.0,
    )
    db = Database(config)
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    txn = db.begin()
    initial: list[int] = []
    for i in range(spec.initial_keys):
        key = (i * 7) % spec.key_space
        if key not in initial:
            db.insert(txn, "t", {"id": key, "val": "seed"})
            initial.append(key)
    db.commit(txn)
    db.enable_replication(sync=sync, sync_timeout_seconds=2.0)

    server = DatabaseServer(
        db,
        ServerConfig(
            workers=spec.sessions,
            queue_depth=spec.sessions * 4,
            request_timeout_seconds=10.0,
            drain_timeout_seconds=10.0,
        ),
    ).start(listen=False)
    # start() seeds synchronously: by the time it returns the standby is
    # registered, so (in sync mode) no acked commit can slip past the gate.
    standby = Standby(
        lambda: server.connect_loopback(),
        name=f"failover-{spec.seed}",
        poll_wait_seconds=0.02,
    ).start()

    workers = [_SessionWorker(i, spec, server) for i in range(spec.sessions)]
    for worker in workers:
        for key in initial:
            if key % spec.sessions == worker.worker_id:
                worker.state[key] = True
    threads = [threading.Thread(target=worker.run) for worker in workers]
    report = FailoverReport(seed=spec.seed, crash_mode=spec.crash_mode, sync=sync)

    def total_acked() -> int:
        return sum(w.acked for w in workers)

    if spec.crash_mode == "held_flush":
        # Armed before any request is sent (see run_multisession_round).
        db.failpoints.arm_pause(
            _FLUSH_WINDOW, when=lambda: total_acked() >= spec.crash_after_requests
        )
    elif spec.crash_mode not in ("racing", "sync"):
        raise ValueError(f"unknown crash_mode {spec.crash_mode!r}")
    for thread in threads:
        thread.start()

    if spec.crash_mode == "held_flush":
        # Crash with commits parked between group-commit enqueue and
        # flush: their records exist only in the volatile tail, and the
        # standby must never have seen them.  The crash resumes the
        # paused leader as crashed.
        try:
            db.failpoints.wait_until_paused(_FLUSH_WINDOW, timeout=10.0)
        except TimeoutError:
            pass  # the workload ended below the warm-up count: nothing parked
    else:
        deadline = time.monotonic() + 10.0
        while total_acked() < spec.crash_after_requests and time.monotonic() < deadline:
            if not any(t.is_alive() for t in threads):
                break
            time.sleep(0.001)
    report.parked_at_crash = db.log.group_commit_parked
    db.crash()

    durable_horizon = db.log.flushed_lsn
    _check(
        standby.db.log.end_lsn <= durable_horizon + 1,
        spec.seed,
        f"{spec.crash_mode}: standby received bytes past the primary's "
        f"durable prefix",
    )

    if sync:
        # No drain: the dead primary's log is unreachable from now on.
        server.abort()
        _join_all(threads, spec.seed)
    else:
        _join_all(threads, spec.seed)
        # Drain the remaining durable WAL from the dead primary's
        # stable storage (the engine is halted; its flushed prefix is
        # still servable), then cut the cord.
        _check(
            standby.wait_for_lsn(durable_horizon, timeout=10.0),
            spec.seed,
            f"{spec.crash_mode}: standby failed to drain the durable "
            f"prefix to {durable_horizon}: {standby.status()}",
        )
        server.abort()

    promote_report = standby.promote()
    promoted = standby.db
    report.acked_requests = total_acked()
    report.lost_commits = sum(w.lost for w in workers)
    report.indeterminate_keys = len(set().union(*(w.unknown for w in workers)))
    report.records_replayed = promoted.stats.snapshot().get(
        "standby.records_replayed", 0
    )
    report.txns_rolled_back_at_promotion = (
        promote_report.undo.transactions_rolled_back
    )

    _check(
        promoted.verify_indexes() == {},
        spec.seed,
        f"{spec.crash_mode}: promoted index structure invalid",
    )
    txn = promoted.begin()
    survivors = {row["id"] for _, row in promoted.scan(txn, "t", "by_id")}
    promoted.commit(txn)
    for worker in workers:
        for key, present in worker.state.items():
            if key in worker.unknown:
                continue
            if present:
                _check(
                    key in survivors,
                    spec.seed,
                    f"{spec.crash_mode}: acked key {key} (session "
                    f"{worker.worker_id}) missing after failover",
                )
            else:
                _check(
                    key not in survivors,
                    spec.seed,
                    f"{spec.crash_mode}: deleted/never-committed key {key} "
                    f"(session {worker.worker_id}) survived failover",
                )
    known = set().union(*(set(w.state) | w.unknown for w in workers))
    ghosts = survivors - known
    _check(
        not ghosts, spec.seed, f"{spec.crash_mode}: ghost keys {sorted(ghosts)}"
    )

    if not sync:
        # The drained standby saw the primary's whole durable prefix, so
        # promotion must land on exactly the state restarting the old
        # primary would have produced.
        db.restart()
        txn = db.begin()
        primary_survivors = {row["id"] for _, row in db.scan(txn, "t", "by_id")}
        db.commit(txn)
        _check(
            primary_survivors == survivors,
            spec.seed,
            f"{spec.crash_mode}: promoted state diverged from the old "
            f"primary's recovery "
            f"(only-primary={sorted(primary_survivors - survivors)}, "
            f"only-promoted={sorted(survivors - primary_survivors)})",
        )
        report.primary_agreement_checked = True

    # The promoted database is a read-write primary.
    sentinel = spec.key_space + 1 + spec.seed
    txn = promoted.begin()
    promoted.insert(txn, "t", {"id": sentinel, "val": "post-failover"})
    promoted.commit(txn)
    txn = promoted.begin()
    row = promoted.fetch(txn, "t", "by_id", sentinel)
    promoted.commit(txn)
    _check(
        row is not None,
        spec.seed,
        f"{spec.crash_mode}: promoted database refused writes",
    )

    promoted.close()
    db.close()
    return report


def run_failover(
    seeds: range, base: FailoverSpec | None = None
) -> list[FailoverReport]:
    """One failover round per seed, cycling crash modes so a sweep
    covers the flush window, racing crashes, and the sync-commit gate."""
    base = base or FailoverSpec()
    modes = ("held_flush", "racing", "sync")
    return [
        run_failover_round(
            replace(base, seed=seed, crash_mode=modes[seed % len(modes)])
        )
        for seed in seeds
    ]


# -- serve-while-recovering torture mode -------------------------------------
#
# The modes above all recover stop-the-world before verifying.  This
# mode verifies *instant restart*: the primary crashes mid-load (with
# torn page writes and WAL-tail loss armed), recovery opens the
# database after analysis + undo only, and the round then
#
#   1. reads every key whose acked state is known THROUGH the
#      still-recovering server — each read lands on an unrecovered page
#      and must pay the on-demand recovery cost, never observe stale
#      (pre-redo or uncommitted) state;
#   2. starts the background redo workers and fires a second write
#      burst at the database while the drain runs;
#   3. waits for the drain, re-verifies the combined acked state,
#      structure-checks the indexes, and finally crash+restarts
#      stop-the-world to prove the instant path left exactly the state
#      classic recovery would reach.


@dataclass(frozen=True)
class ServeWhileRecoveringSpec:
    """Parameters of one serve-while-recovering torture round."""

    seed: int = 0
    sessions: int = 4
    requests_per_session: int = 24
    key_space: int = 160
    initial_keys: int = 24
    page_size: int = 1024
    buffer_pool_pages: int = 96
    insert_fraction: float = 0.65
    crash_after_requests: int = 30
    flush_probability: float = 0.2
    """Per-poll chance the round flushes a couple of dirty pages while
    the phase-1 load runs (gives torn writes something to tear)."""
    torn_write_probability: float = 0.05
    wal_tail_loss_probability: float = 0.3
    redo_workers: int = 2
    phase2_requests_per_session: int = 12
    """Write burst fired while the background drain runs."""


@dataclass
class ServeWhileRecoveringReport:
    """Outcome of one serve-while-recovering round (invariants already
    asserted)."""

    seed: int
    acked_requests: int = 0
    lost_commits: int = 0
    indeterminate_keys: int = 0
    pages_pending_at_open: int = 0
    stale_reads_checked: int = 0
    recovered_ondemand: int = 0
    recovered_background: int = 0
    pages_rebuilt: int = 0
    fault_counters: dict[str, int] = field(default_factory=dict)


def run_serve_while_recovering_round(
    spec: ServeWhileRecoveringSpec,
) -> ServeWhileRecoveringReport:
    """One crash → instant-restart → serve-while-recovering round."""
    import threading
    import time

    from repro.server.server import DatabaseServer, ServerConfig

    injector = FaultInjector(
        FaultPlan(
            seed=spec.seed ^ 0x1257A27,
            torn_write_probability=spec.torn_write_probability,
            wal_tail_loss_probability=spec.wal_tail_loss_probability,
        )
    )
    config = DatabaseConfig(
        page_size=spec.page_size,
        buffer_pool_pages=spec.buffer_pool_pages,
        group_commit=True,
        group_commit_max_wait_seconds=0.001,
        lock_timeout_seconds=1.0,
        latch_timeout_seconds=5.0,
        ondemand_recovery_timeout_seconds=10.0,
    )
    report = ServeWhileRecoveringReport(seed=spec.seed)
    enable_lockgraph()

    injector.disarm()
    db = Database(config, fault_injector=injector)
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    txn = db.begin()
    initial: list[int] = []
    for i in range(spec.initial_keys):
        key = (i * 7) % spec.key_space
        if key not in initial:
            db.insert(txn, "t", {"id": key, "val": "seed"})
            initial.append(key)
    db.commit(txn)
    db.flush_all_pages()  # a real on-disk working set for the lazy scrub
    injector.arm()

    server = DatabaseServer(
        db,
        ServerConfig(
            workers=spec.sessions,
            queue_depth=spec.sessions * 4,
            request_timeout_seconds=10.0,
            drain_timeout_seconds=10.0,
        ),
    ).start(listen=False)

    workers = [_SessionWorker(i, spec, server) for i in range(spec.sessions)]
    for worker in workers:
        for key in initial:
            if key % spec.sessions == worker.worker_id:
                worker.state[key] = True
    threads = [threading.Thread(target=worker.run) for worker in workers]
    for thread in threads:
        thread.start()

    def total_acked() -> int:
        return sum(w.acked for w in workers)

    # Phase 1: let the load run, stealing dirty pages to disk now and
    # then (so the crash leaves a mix of current, stale, and torn
    # on-disk pages), and crash at a racing moment.
    flush_rng = random.Random(spec.seed ^ 0xF1A5)
    deadline = time.monotonic() + 10.0
    while total_acked() < spec.crash_after_requests and time.monotonic() < deadline:
        if not any(t.is_alive() for t in threads):
            break
        if flush_rng.random() < spec.flush_probability:
            dirty = list(db.buffer.dirty_page_table())
            for page_id in flush_rng.sample(dirty, k=min(len(dirty), 2)):
                try:
                    db.flush_page(page_id)
                except Exception:  # noqa: BLE001,RPR005 - racing with the load
                    pass
        time.sleep(0.001)
    db.crash()
    # Abort before joining: post-crash requests can otherwise burn a
    # lock/latch timeout each against the dead engine, and a session
    # with many requests left would outlive the join budget.
    server.abort()
    _join_all(threads, spec.seed)
    report.fault_counters = dict(injector.counters)
    injector.enter_recovery_mode()

    # Phase 2: instant restart with NO background workers — the
    # database is open but deterministically still recovering, so the
    # verification reads below must pay (and prove) on-demand recovery.
    restart_report = db.instant_restart(
        redo_workers=spec.redo_workers, background=False
    )
    governor = db.recovery
    _check(governor is not None, spec.seed, "instant restart installed no governor")
    report.pages_pending_at_open = governor.progress()["pages_pending"]

    server = DatabaseServer(
        db,
        ServerConfig(
            workers=spec.sessions,
            queue_depth=spec.sessions * 4,
            request_timeout_seconds=10.0,
            drain_timeout_seconds=10.0,
        ),
    ).start(listen=False)

    # Every key with known acked state is read through the recovering
    # server: presence must match the acked history exactly (an acked
    # commit lost OR a pre-crash loser visible would both surface here).
    client = server.connect_loopback()
    try:
        for worker in workers:
            for key, present in sorted(worker.state.items()):
                if key in worker.unknown:
                    continue
                row = client.fetch("t", "by_id", key)
                report.stale_reads_checked += 1
                if present:
                    _check(
                        row is not None,
                        spec.seed,
                        f"acked key {key} (session {worker.worker_id}) lost "
                        f"while recovering",
                    )
                else:
                    _check(
                        row is None,
                        spec.seed,
                        f"stale read while recovering: key {key} (session "
                        f"{worker.worker_id}) should be absent",
                    )
    finally:
        client.close()

    # Phase 3: background drain + a concurrent write burst.
    governor.start_background()
    spec2 = replace(
        spec,
        seed=spec.seed + 7777,
        requests_per_session=spec.phase2_requests_per_session,
    )
    workers2 = [_SessionWorker(i, spec2, server) for i in range(spec.sessions)]
    for before, after in zip(workers, workers2):
        after.state = dict(before.state)
        after.unknown = set(before.unknown)
    threads2 = [threading.Thread(target=worker.run) for worker in workers2]
    for thread in threads2:
        thread.start()
    _join_all(threads2, spec.seed)
    _check(
        governor.drain(timeout=30.0),
        spec.seed,
        f"background redo did not drain: {governor.progress()}",
    )
    _check(db.recovery_state == "steady", spec.seed, "state stuck at recovering")
    server.abort()

    report.acked_requests = total_acked() + sum(w.acked for w in workers2)
    report.lost_commits = sum(w.lost for w in workers) + sum(
        w.lost for w in workers2
    )
    report.indeterminate_keys = len(
        set().union(*(w.unknown for w in workers2))
    )
    snap = db.stats.snapshot()
    report.recovered_ondemand = snap.get("recovery.pages_recovered_ondemand", 0)
    report.recovered_background = snap.get("recovery.pages_recovered_background", 0)
    report.pages_rebuilt = restart_report.scrub.pages_rebuilt

    # Final state check against the combined acked history.
    _check(db.verify_indexes() == {}, spec.seed, "index structure invalid after drain")
    txn = db.begin()
    survivors = {row["id"] for _, row in db.scan(txn, "t", "by_id")}
    db.commit(txn)
    for worker in workers2:
        for key, present in worker.state.items():
            if key in worker.unknown:
                continue
            if present:
                _check(
                    key in survivors,
                    spec.seed,
                    f"acked key {key} (session {worker.worker_id}) lost after drain",
                )
            else:
                _check(
                    key not in survivors,
                    spec.seed,
                    f"deleted/never-committed key {key} (session "
                    f"{worker.worker_id}) survived the drain",
                )
    known = set().union(*(set(w.state) | w.unknown for w in workers2))
    ghosts = survivors - known
    _check(not ghosts, spec.seed, f"ghost keys {sorted(ghosts)}")

    # Instant restart must leave exactly the state classic stop-the-world
    # recovery reaches: crash again and compare.
    db.crash()
    db.restart()
    txn = db.begin()
    survivors_again = {row["id"] for _, row in db.scan(txn, "t", "by_id")}
    db.commit(txn)
    _check(
        survivors_again == survivors,
        spec.seed,
        "stop-the-world restart diverged from the instant-restart state",
    )
    _check_analysis(db, spec.seed, "serve-while-recovering")
    db.close()
    return report


def run_serve_while_recovering(
    seeds: range, base: ServeWhileRecoveringSpec | None = None
) -> list[ServeWhileRecoveringReport]:
    """One serve-while-recovering round per seed (raises on the first
    invariant violation)."""
    base = base or ServeWhileRecoveringSpec()
    return [
        run_serve_while_recovering_round(replace(base, seed=seed))
        for seed in seeds
    ]


# -- cluster (2PC) torture mode ----------------------------------------------
#
# The modes above verify single-node durability.  This mode verifies the
# *atomic commitment* contract of the sharded cluster: client sessions
# mix single-shard transactions with cross-shard two-phase commits while
# a crash lands on a random subset of {one shard, the coordinator, both}
# — including inside a group-commit flush window, the spot where a
# PREPARE or a coordinator commit decision is enqueued but not yet
# durable.  After restarting the crashed pieces and running the
# presumed-abort resolution protocol, the invariants:
#
#   * every ACKED cross-shard commit is present on EVERY participant;
#   * every cross-shard transaction that got a definite NO (abort
#     raised, decision never durable) is present on NO participant;
#   * every other cross-shard transaction — including those whose
#     outcome the client never learned — is ALL-or-NOTHING: no
#     transaction may land on a strict subset of its participants;
#   * single-shard traffic keeps the per-key acked-state contract of
#     the multisession mode;
#   * no shard is left holding an in-doubt branch after resolution.


@dataclass(frozen=True)
class ClusterTortureSpec:
    """Parameters of one cluster 2PC torture round."""

    seed: int = 0
    shards: int = 3
    sessions: int = 4
    requests_per_session: int = 20
    key_space: int = 120
    cross_shard_fraction: float = 0.45
    """Fraction of requests that run a cross-shard transaction."""
    crash_mode: str = "shard"
    """``shard``: crash one shard (held in its flush window).
    ``coordinator``: crash the coordinator (held in its flush window).
    ``both``: crash the coordinator and one shard together."""
    crash_after_requests: int = 16
    """Total acked requests after which the crash trigger pulls."""


@dataclass
class ClusterTortureReport:
    """Outcome of one cluster round (invariants already asserted)."""

    seed: int
    crash_mode: str
    acked_singles: int = 0
    acked_cross: int = 0
    lost_cross: int = 0
    unknown_cross: int = 0
    aborted_cross: int = 0
    indoubt_resolved: int = 0
    parked_at_crash: int = 0


class _ClusterWorker:
    """One cluster session: single-shard ops plus cross-shard 2PC txns.

    Cross-shard transactions write a fresh, worker-unique key pair (one
    key per participant shard) so each transaction's fate is readable
    from the final state: both keys present = committed, both absent =
    aborted/lost, one of each = the atomicity violation this harness
    exists to catch.
    """

    def __init__(self, worker_id: int, spec: ClusterTortureSpec, cluster) -> None:
        self.worker_id = worker_id
        self.spec = spec
        self.cluster = cluster
        self.rng = random.Random(spec.seed * 999983 + worker_id)
        #: Acked single-shard state, per key (True=present, False=absent).
        self.state: dict[int, bool] = {}
        self.unknown: set[int] = set()
        #: Cross-shard txns: (key_a, key_b) -> "acked"|"lost"|"unknown"|"aborted".
        self.cross: dict[tuple[int, int], str] = {}
        self.acked = 0
        self._cross_seq = 0

    def _cross_keys(self) -> tuple[int, int]:
        """A fresh pair of keys owned by two *different* shards."""
        from repro.cluster.routing import shard_for_key

        spec = self.spec
        base = spec.key_space + 100_000 * (self.worker_id + 1)
        while True:
            self._cross_seq += 1
            a = base + 10 * self._cross_seq
            shard_a = shard_for_key(a, spec.shards)
            for b in range(a + 1, a + 10):
                if shard_for_key(b, spec.shards) != shard_a:
                    return a, b
            # All nine neighbours hashed onto shard_a; try the next base.

    def run(self) -> None:
        from repro.common.errors import (
            CommitNotDurableError,
            DatabaseClosedError,
            LogHaltedError,
            ServerError,
            ServerShutdownError,
            ShardUnavailableError,
            TwoPhaseAbortError,
        )

        spec = self.spec
        try:
            client = self.cluster.client()
        except Exception:  # noqa: BLE001,RPR005 - cluster already crashing
            return
        try:
            for _ in range(spec.requests_per_session):
                if self.rng.random() < spec.cross_shard_fraction:
                    pair = self._cross_keys()
                    self.cross[pair] = "unknown"
                    try:
                        client.begin()
                        client.insert("t", {"id": pair[0], "val": f"x{self.worker_id}"})
                        client.insert("t", {"id": pair[1], "val": f"x{self.worker_id}"})
                        client.commit()
                        self.cross[pair] = "acked"
                        self.acked += 1
                    except TwoPhaseAbortError:
                        # Definite NO: no durable commit decision exists.
                        self.cross[pair] = "aborted"
                    except (CommitNotDurableError, LogHaltedError):  # noqa: RPR005 - in-doubt commit recorded as unknown
                        self.cross[pair] = "lost"
                    except (DatabaseClosedError, ServerShutdownError):
                        return
                    except Exception:  # noqa: BLE001,RPR005 - in doubt
                        # The attempt died before commit() closed the
                        # logical transaction (e.g. an insert hit the
                        # crashed shard): roll it back, or every later
                        # "autocommit" op would silently join the zombie
                        # transaction and be acked without commit.
                        try:
                            if client._txn_open:
                                client.rollback()
                        except Exception:  # noqa: BLE001,RPR005 - client already torn down with the crash
                            pass
                        if client.closed:
                            return
                else:
                    key = (
                        self.rng.randrange(spec.key_space // spec.sessions)
                        * spec.sessions
                        + self.worker_id
                    )
                    inserting = self.rng.random() < 0.7
                    try:
                        if inserting:
                            client.insert("t", {"id": key, "val": f"s{self.worker_id}"})
                            self.state[key] = True
                        else:
                            client.delete_by_key("t", "by_id", key)
                            self.state[key] = False
                        self.unknown.discard(key)
                        self.acked += 1
                    except UniqueKeyViolationError:
                        self.state[key] = True
                        self.unknown.discard(key)
                        self.acked += 1
                    except KeyNotFoundError:
                        self.state[key] = False
                        self.unknown.discard(key)
                        self.acked += 1
                    except (CommitNotDurableError, LogHaltedError):  # noqa: RPR005 - in-doubt commit recorded as unknown
                        pass  # definite NO: acked state unchanged
                    except (DatabaseClosedError, ServerShutdownError,
                            ShardUnavailableError):
                        return
                    except (ServerError, DeadlockError, LockTimeoutError):
                        self.unknown.add(key)
                        if client.closed:
                            return
                    except Exception:  # noqa: BLE001,RPR005 - post-crash wreckage
                        self.unknown.add(key)
                        return
        finally:
            try:
                client.close()
            except Exception:  # noqa: BLE001,RPR005 - client already torn down with the crash
                pass


def run_cluster_round(spec: ClusterTortureSpec) -> ClusterTortureReport:
    """One cluster 2PC torture round."""
    import threading
    import time

    from repro.cluster.cluster import Cluster
    from repro.server.server import ServerConfig

    config = DatabaseConfig(
        group_commit=True,
        group_commit_max_wait_seconds=0.001,
        lock_timeout_seconds=1.0,
        latch_timeout_seconds=5.0,
    )
    cluster = Cluster(
        num_shards=spec.shards,
        config=config,
        server_config=ServerConfig(
            workers=spec.sessions,
            queue_depth=spec.sessions * 4,
            request_timeout_seconds=10.0,
            drain_timeout_seconds=10.0,
        ),
    )
    cluster.create_table("t")
    cluster.create_index("t", "by_id", column="id", unique=True)

    rng = random.Random(spec.seed * 60013 + 7)
    victim_shard = rng.randrange(spec.shards)

    workers = [_ClusterWorker(i, spec, cluster) for i in range(spec.sessions)]
    threads = [threading.Thread(target=worker.run) for worker in workers]
    report = ClusterTortureReport(seed=spec.seed, crash_mode=spec.crash_mode)

    def total_acked() -> int:
        return sum(w.acked for w in workers)

    # Aim the crash: once the workload has warmed up, the victim log's
    # next group-commit leader pauses with a batch taken, so
    # commits/prepares/decisions park in the take->flush window, and the
    # crash lands on them.
    victims = []
    if spec.crash_mode in ("shard", "both"):
        shard_db = cluster.shards[victim_shard].db
        victims.append((shard_db.log, shard_db.failpoints))
    if spec.crash_mode in ("coordinator", "both"):
        victims.append((cluster.coordinator.log, cluster.coordinator.failpoints))
    if spec.crash_mode not in ("shard", "coordinator", "both"):
        raise ValueError(f"unknown crash_mode {spec.crash_mode!r}")
    pauses = [
        failpoints.arm_pause(
            _FLUSH_WINDOW, when=lambda: total_acked() >= spec.crash_after_requests
        )
        for _, failpoints in victims
    ]
    for thread in threads:
        thread.start()

    deadline = time.monotonic() + 6.0
    while (
        not any(pause.reached.is_set() for pause in pauses)
        and time.monotonic() < deadline
    ):
        if not any(t.is_alive() for t in threads):
            break  # workload already finished; nothing to park
        time.sleep(0.001)
    report.parked_at_crash = sum(log.group_commit_parked for log, _ in victims)
    # Each crash resumes its log's paused leader as crashed.
    if spec.crash_mode in ("coordinator", "both"):
        cluster.crash_coordinator()
    if spec.crash_mode in ("shard", "both"):
        cluster.crash_shard(victim_shard)
    _join_all(threads, spec.seed)

    # Recover the crashed pieces, then run in-doubt resolution.
    if spec.crash_mode in ("shard", "both"):
        cluster.restart_shard(victim_shard)
    if spec.crash_mode in ("coordinator", "both"):
        cluster.restart_coordinator()
    report.indoubt_resolved = cluster.resolve_indoubt()
    _check(
        all(not gids for gids in cluster.indoubt_gids().values()),
        spec.seed,
        f"{spec.crash_mode}: in-doubt branches remain after resolution: "
        f"{cluster.indoubt_gids()}",
    )
    for shard in cluster.shards:
        _check(
            shard.db.verify_indexes() == {},
            spec.seed,
            f"{spec.crash_mode}: shard {shard.shard_id} index invalid",
        )

    # Read back the surviving state through a fresh cluster session.
    reader = cluster.client()
    survivors = {row["id"] for row in reader.scan("t", "by_id", limit=100_000)}
    reader.close()

    # Single-shard contract (same as the multisession mode).
    for worker in workers:
        for key, present in worker.state.items():
            if key in worker.unknown:
                continue
            _check(
                (key in survivors) == present,
                spec.seed,
                f"{spec.crash_mode}: single-shard key {key} acked "
                f"{'present' if present else 'absent'} but "
                f"{'absent' if present else 'present'} after recovery",
            )

    # Cross-shard contract: acked => everywhere; definite NO => nowhere;
    # everything => all-or-nothing.
    for worker in workers:
        for (a, b), outcome in worker.cross.items():
            in_a, in_b = a in survivors, b in survivors
            _check(
                in_a == in_b,
                spec.seed,
                f"{spec.crash_mode}: cross-shard txn ({a},{b}) "
                f"[{outcome}] applied PARTIALLY: {a}={'present' if in_a else 'absent'}, "
                f"{b}={'present' if in_b else 'absent'}",
            )
            if outcome == "acked":
                _check(
                    in_a and in_b,
                    spec.seed,
                    f"{spec.crash_mode}: ACKED cross-shard txn ({a},{b}) lost",
                )
                report.acked_cross += 1
            elif outcome in ("lost", "aborted"):
                _check(
                    not in_a and not in_b,
                    spec.seed,
                    f"{spec.crash_mode}: {outcome} cross-shard txn "
                    f"({a},{b}) survived",
                )
                report.lost_cross += outcome == "lost"
                report.aborted_cross += outcome == "aborted"
            else:
                report.unknown_cross += 1
    report.acked_singles = total_acked() - report.acked_cross

    # Ghost check: every surviving key must be accounted for.
    known: set[int] = set()
    for worker in workers:
        known |= set(worker.state) | worker.unknown
        for a, b in worker.cross:
            known |= {a, b}
    ghosts = survivors - known
    _check(not ghosts, spec.seed, f"{spec.crash_mode}: ghost keys {sorted(ghosts)}")

    # Idempotency: crash + restart every piece again, re-resolve, and
    # the state must not move.
    for shard_id in range(spec.shards):
        cluster.crash_shard(shard_id)
        cluster.restart_shard(shard_id)
    cluster.crash_coordinator()
    cluster.restart_coordinator()
    cluster.resolve_indoubt()
    reader = cluster.client()
    survivors_again = {row["id"] for row in reader.scan("t", "by_id", limit=100_000)}
    reader.close()
    _check(
        survivors_again == survivors,
        spec.seed,
        f"{spec.crash_mode}: second cluster-wide restart diverged",
    )
    cluster.close()
    return report


def run_cluster(
    seeds: range, base: ClusterTortureSpec | None = None
) -> list[ClusterTortureReport]:
    """One cluster round per seed, cycling the crash target over
    {shard, coordinator, both} so a sweep covers every loss pattern."""
    base = base or ClusterTortureSpec()
    modes = ("shard", "coordinator", "both")
    return [
        run_cluster_round(
            replace(base, seed=seed, crash_mode=modes[seed % len(modes)])
        )
        for seed in seeds
    ]


def main(argv: list[str] | None = None) -> int:
    """CLI: run a seeded multi-session torture sweep.

    ``python -m repro.harness.torture --seeds 3 --snapshot-readers 2``
    adds snapshot-reader sessions racing the writers (each double-read
    inside one snapshot must be stable; the round fails on any torn
    read)."""
    import argparse
    import dataclasses
    import json

    parser = argparse.ArgumentParser(
        description="seeded multi-session crash torture"
    )
    parser.add_argument("--seeds", type=int, default=3, help="rounds to run")
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--sessions", type=int, default=4)
    parser.add_argument("--requests", type=int, default=24)
    parser.add_argument(
        "--snapshot-readers",
        type=int,
        default=0,
        help="snapshot-reader sessions racing the writers",
    )
    parser.add_argument(
        "--lockgraph-dump",
        default=None,
        metavar="PATH",
        help="write the last round's latch-order graph (JSON) here after the sweep",
    )
    args = parser.parse_args(argv)

    monitor = enable_lockgraph()
    base = MultiSessionSpec(
        sessions=args.sessions,
        requests_per_session=args.requests,
        snapshot_readers=args.snapshot_readers,
    )
    try:
        reports = run_multisession(
            range(args.first_seed, args.first_seed + args.seeds), base
        )
    finally:
        if args.lockgraph_dump:
            # Each round installs its own database-scoped monitor; the
            # dump is the graph of the last round that ran.
            monitor = get_latch_monitor() or monitor
            monitor.dump_json(args.lockgraph_dump)
    print(json.dumps([dataclasses.asdict(r) for r in reports], indent=2))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
