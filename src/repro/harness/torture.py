"""Seeded crash torture: one round runner, five kinds of round.

A round is one seeded story: build a database (or a replicated pair, or
a sharded cluster), load it, crash it, recover it, check what survived
against what was acknowledged, crash it again and check that recovery
lands on the same state, then run the end gates (the surviving logs
verify clean under ``walcheck`` and the latch-order graph is acyclic).
The kind of round (one scenario class each) chooses how it loads,
crashes and recovers: ``engine`` is single-threaded under a seeded
fault schedule; ``server`` runs client sessions on a group-committing
server; ``failover`` crashes a replicated primary and promotes its
standby; ``recovering`` serves from an instant restart while it drains;
``cluster`` mixes single- and cross-shard (2PC) transactions.

The acked-state contract every kind is checked against:

* every acknowledged write survives, and every acknowledged delete
  stays deleted;
* a commit answered ``LogHaltedError`` left no trace; one answered
  ``CommitNotDurableError``, or whose response never arrived, is in
  doubt and may go either way;
* no key that no session wrote appears (no ghosts);
* the heap agrees with the index, and every index is structurally valid.

Determinism: every random decision of a round (the workload, the fault
schedule, the crash target) derives from its seed, so a failing seed
replays with ``run_round(TortureSpec(kind=..., seed=N, crash_mode=...))``.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.analysis.lockgraph import LatchOrderMonitor
from repro.analysis.walcheck import check_log
from repro.common.config import DatabaseConfig
from repro.common.errors import (
    CommitNotDurableError,
    DatabaseClosedError,
    DeadlockError,
    KeyNotFoundError,
    LockTimeoutError,
    LogHaltedError,
    PermanentIOError,
    ServerError,
    ServerShutdownError,
    ShardUnavailableError,
    TwoPhaseAbortError,
    UniqueKeyViolationError,
)
from repro.db import Database
from repro.storage.faults import FaultInjector, FaultPlan
from repro.storage.latch import get_latch_monitor, set_latch_monitor


def enable_lockgraph() -> LatchOrderMonitor:
    """Install a fresh latch-order monitor scoped to the round's database.

    Every round then doubles as a deadlock-freedom proof: the monitor
    records the acquired-while-held graph over the database's whole
    lifetime (crash/restart included) and the round asserts it stays
    acyclic over the blocking edges.  The scope is one round, not the
    process: page-id latch names are only meaningful within one page
    space, so merging graphs across rounds would fabricate edges (page
    6 of one tree shape versus page 6 of another) and with them false
    cycles.  Call this *before* constructing the round's databases —
    their latch tables capture the installed monitor at construction,
    which is what keeps other databases' (leaked background) threads
    out of this round's graph."""
    monitor = LatchOrderMonitor()
    set_latch_monitor(monitor)
    return monitor


class TortureInvariantError(AssertionError):
    """A round's invariant failed; the message names the seed."""


def _check(condition: bool, seed: int, message: str) -> None:
    if not condition:
        raise TortureInvariantError(f"seed {seed}: {message}")


@dataclass(frozen=True)
class TortureSpec:
    """Parameters of one round.  A field left ``None`` takes its kind's
    default (the ``defaults`` of the kind's scenario class, else
    ``_DEFAULTS``), so ``TortureSpec(kind="failover", seed=3)`` is the
    round a failover sweep runs for seed 3."""

    kind: str = "engine"
    seed: int = 0
    crash_mode: str | None = None
    """One of the kind's ``modes``; ``None`` takes the first."""
    page_size: int | None = None
    buffer_pool_pages: int | None = None
    initial_keys: int | None = None
    key_space: int | None = None
    # -- the engine kind's single-threaded story ---------------------------
    txn_count: int = 10
    max_ops_per_txn: int = 6
    flush_probability: float | None = None
    """Engine: per step.  Recovering: per millisecond of the pre-crash
    load, which flushes a couple of dirty pages (something to tear)."""
    checkpoint_probability: float = 0.15
    force_log_probability: float = 0.5
    # -- faults (engine and recovering kinds) -----------------------------
    torn_write_probability: float | None = None
    transient_read_probability: float | None = None
    transient_write_probability: float | None = None
    permanent_probability: float | None = None
    wal_tail_loss_probability: float | None = None
    # -- the client load (every kind but engine) --------------------------
    sessions: int = 4
    requests_per_session: int | None = None
    insert_fraction: float | None = None
    crash_after_requests: int | None = None
    """Acknowledged requests after which the crash trigger pulls."""
    log_flush_latency_seconds: float = 0.0
    """Price of one log flush.  Coalescing waits at most one flush's
    price, so an unpriced round forces each commit at once, and only a
    priced one shows group commit's saving."""
    snapshot_readers: int = 0
    """Reader sessions racing the writers: each repeatedly opens a
    snapshot and reads one key twice, and the two answers must agree.
    A reader that hits the crash stops; the round asserts zero torn
    reads."""
    # -- recovering kind ---------------------------------------------------
    phase2_requests_per_session: int = 12
    """The load fired while the background drain runs."""
    # -- cluster kind ------------------------------------------------------
    shards: int = 3
    cross_shard_fraction: float | None = None
    """Share of requests that run a cross-shard transaction."""

    def __post_init__(self) -> None:
        scenario = _SCENARIOS.get(self.kind)
        if scenario is None:
            raise ValueError(f"unknown torture kind {self.kind!r}")
        defaults = {**_DEFAULTS, **scenario.defaults, "crash_mode": scenario.modes[0]}
        for name, value in defaults.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, value)
        if self.crash_mode not in scenario.modes:
            raise ValueError(
                f"{self.kind} rounds have crash modes {scenario.modes}, "
                f"not {self.crash_mode!r}"
            )


_DEFAULTS = dict(
    page_size=1024,
    buffer_pool_pages=64,
    initial_keys=20,
    key_space=160,
    flush_probability=0.0,
    torn_write_probability=0.0,
    transient_read_probability=0.0,
    transient_write_probability=0.0,
    permanent_probability=0.0,
    wal_tail_loss_probability=0.0,
    requests_per_session=24,
    insert_fraction=0.65,
    crash_after_requests=30,
    cross_shard_fraction=0.0,
)


@dataclass
class TortureReport:
    """Outcome of one round (every invariant already asserted).  A
    counter that a kind does not measure stays zero."""

    seed: int
    kind: str
    crash_mode: str
    # -- engine: the seeded story and its faults ---------------------------
    committed_keys: int = 0
    txns_committed: int = 0
    txns_rolled_back: int = 0
    io_panic: bool = False
    fault_counters: dict[str, int] = field(default_factory=dict)
    log_tail_bytes_discarded: int = 0
    pages_rebuilt: int = 0
    # -- the client load ---------------------------------------------------
    acked_requests: int = 0
    lost_commits: int = 0
    indeterminate_keys: int = 0
    parked_at_crash: int = 0
    snapshot_reads: int = 0
    """Double-reads the snapshot readers completed (each one a
    stability check that passed)."""
    buffer_misses: int = 0
    """Pages read from disk while the load ran, up to the crash: a
    round whose data outgrows the pool has its readers decode pages."""
    # -- recovery ----------------------------------------------------------
    losers_undone: int = 0
    """Transactions the first recovery (restart or promotion) rolled back."""
    # -- server: group commit over the whole round ------------------------
    flushes_saved: int = 0
    commits: int = 0
    sync_forces: int = 0
    # -- failover ----------------------------------------------------------
    records_replayed: int = 0
    primary_agreement_checked: bool = False
    # -- recovering --------------------------------------------------------
    pages_pending_at_open: int = 0
    stale_reads_checked: int = 0
    recovered_ondemand: int = 0
    recovered_background: int = 0
    # -- cluster -----------------------------------------------------------
    acked_cross: int = 0
    lost_cross: int = 0
    unknown_cross: int = 0
    aborted_cross: int = 0
    indoubt_resolved: int = 0

    @property
    def sync(self) -> bool:
        """A failover round promoted with no drain (synchronous commit)."""
        return self.crash_mode == "sync"

    @property
    def acked_singles(self) -> int:
        return self.acked_requests - self.acked_cross


# -- the acked state and the one oracle --------------------------------------


class _Acked:
    """What one session knows was acknowledged."""

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        #: Last *acknowledged* state of every key this session owns.
        self.state: dict[int, bool] = {}
        #: Keys whose state is in doubt (the response never arrived).
        self.unknown: set[int] = set()
        #: Cross-shard txns: (key_a, key_b) -> "acked"|"lost"|"unknown"|"aborted".
        self.cross: dict[tuple[int, int], str] = {}
        self.lost = 0


def _check_acked(
    seed: int, sessions: list[_Acked], survivors: set[int], label: str
) -> None:
    """The acked-state oracle: ``survivors`` must hold every key last
    acked present, no key last acked absent, each cross-shard pair all
    or nothing (everywhere if acked, nowhere after a definite no), and
    nothing no session wrote."""
    known: set[int] = set()
    for session in sessions:
        for key, present in session.state.items():
            if key in session.unknown:
                continue
            _check(
                (key in survivors) == present,
                seed,
                f"{label}: key {key} (session {session.worker_id}) acked "
                f"{'present' if present else 'absent'} but "
                f"{'absent' if present else 'present'} after recovery",
            )
        for (a, b), outcome in session.cross.items():
            in_a, in_b = a in survivors, b in survivors
            _check(
                in_a == in_b,
                seed,
                f"{label}: cross-shard txn ({a},{b}) [{outcome}] applied "
                f"PARTIALLY: {a} {'present' if in_a else 'absent'}, "
                f"{b} {'present' if in_b else 'absent'}",
            )
            if outcome == "acked":
                _check(in_a, seed, f"{label}: ACKED cross-shard txn ({a},{b}) lost")
            elif outcome in ("lost", "aborted"):
                _check(
                    not in_a,
                    seed,
                    f"{label}: {outcome} cross-shard txn ({a},{b}) survived",
                )
            known |= {a, b}
        known |= set(session.state) | session.unknown
    ghosts = survivors - known
    _check(not ghosts, seed, f"{label}: ghost keys {sorted(ghosts)}")


def _seed_table(db: Database, keys: Iterable[int]) -> list[int]:
    """Create ``t``/``by_id`` and commit one row per key."""
    keys = list(keys)
    db.create_table("t")
    db.create_index("t", "by_id", column="id", unique=True)
    txn = db.begin()
    for key in keys:
        db.insert(txn, "t", {"id": key, "val": "seed"})
    db.commit(txn)
    return keys


def _read_state(db: Database, seed: int, label: str) -> set[int]:
    """Structure-check ``db`` and return the ids left in ``t``; the
    heap must agree with the index."""
    _check(db.verify_indexes() == {}, seed, f"{label}: index structure invalid")
    table = db.tables["t"]
    txn = db.begin()
    survivors = {row["id"] for _, row in db.scan(txn, "t", "by_id")}
    heap = {
        table.fetch_row(txn, rid, lock=False)["id"] for rid in table.heap.scan_rids()
    }
    db.commit(txn)
    _check(heap == survivors, seed, f"{label}: heap disagrees with index")
    return survivors


# -- the client load -----------------------------------------------------------

#: Where a group commit's leader has taken a batch and not yet forced it.
_FLUSH_WINDOW = "log.group_commit.before_flush"


def _close_quietly(client) -> None:
    try:
        client.close()
    except Exception:  # noqa: BLE001,RPR005 - client already torn down with the crash
        pass


class _Session(_Acked):
    """One client session's thread: issues ops, tracks acked state.

    Each session owns the keys ``k`` with ``k % sessions == worker_id``,
    so its acked history fixes each key's expected state exactly.  In a
    cluster round a share of its requests are cross-shard transactions
    that write a fresh, session-unique key pair (one key per
    participant), so each one's fate is readable from the final state."""

    def __init__(self, worker_id: int, load: "_Load", rng: random.Random) -> None:
        super().__init__(worker_id)
        self.load = load
        self.rng = rng
        self._cross_seq = 0

    def run(self) -> None:
        try:
            self._run()
        finally:
            self.load.session_done()

    def _run(self) -> None:
        try:
            client = self.load.connect()
        except Exception:  # noqa: BLE001,RPR005 - server already stopping
            return
        spec = self.load.spec
        try:
            for _ in range(self.load.requests):
                if spec.cross_shard_fraction and (
                    self.rng.random() < spec.cross_shard_fraction
                ):
                    carry_on = self._cross(client)
                else:
                    carry_on = self._single(client)
                if not carry_on:
                    return
        finally:
            _close_quietly(client)

    def _single(self, client) -> bool:
        spec = self.load.spec
        key = (
            self.rng.randrange(spec.key_space // spec.sessions) * spec.sessions
            + self.worker_id
        )
        inserting = self.rng.random() < spec.insert_fraction
        try:
            if inserting:
                client.insert("t", {"id": key, "val": f"w{self.worker_id}"})
            else:
                client.delete_by_key("t", "by_id", key)
            self._acked(key, inserting)
        except UniqueKeyViolationError:
            self._acked(key, True)  # the server proved the key present
        except KeyNotFoundError:
            self._acked(key, False)
        except LogHaltedError:  # noqa: RPR005 - outcome recorded as lost
            # Definite NO: the append itself was refused, so no commit
            # record exists to survive.
            self.lost += 1
        except CommitNotDurableError:  # noqa: RPR005 - outcome recorded as in-doubt
            # Almost always the record died with the volatile tail —
            # but a crash can land *after* the batched flush covered it
            # (or race a commit straddling restart), so the contract is
            # in-doubt, not no.
            self.lost += 1
            self.unknown.add(key)
        except (DatabaseClosedError, ServerShutdownError, ShardUnavailableError):
            return False  # rejected before execution: no state change
        except (ServerError, DeadlockError, LockTimeoutError):
            # In doubt: the op may or may not have committed before the
            # line (or the engine) went down.
            self.unknown.add(key)
            return not client.closed
        except Exception:  # noqa: BLE001,RPR005 - post-crash wreckage
            self.unknown.add(key)
            return False
        return True

    def _acked(self, key: int, present: bool) -> None:
        self.state[key] = present
        self.unknown.discard(key)
        self.load.ack()

    def _cross(self, client) -> bool:
        pair = self._cross_keys()
        self.cross[pair] = "unknown"
        try:
            client.begin()
            client.insert("t", {"id": pair[0], "val": f"x{self.worker_id}"})
            client.insert("t", {"id": pair[1], "val": f"x{self.worker_id}"})
            client.commit()
            self.cross[pair] = "acked"
            self.load.ack()
        except TwoPhaseAbortError:
            self.cross[pair] = "aborted"  # definite NO: no durable decision
        except (CommitNotDurableError, LogHaltedError):  # noqa: RPR005 - outcome recorded as lost
            self.cross[pair] = "lost"
        except (DatabaseClosedError, ServerShutdownError):
            return False
        except Exception:  # noqa: BLE001,RPR005 - in doubt
            # The attempt died before commit() closed the logical
            # transaction (e.g. an insert hit the crashed shard): roll it
            # back, or every later "autocommit" op would silently join
            # the zombie transaction and be acked without commit.
            try:
                if client._txn_open:
                    client.rollback()
            except Exception:  # noqa: BLE001,RPR005 - client already torn down with the crash
                pass
            return not client.closed
        return True

    def _cross_keys(self) -> tuple[int, int]:
        """A fresh pair of keys owned by two *different* shards."""
        from repro.cluster.routing import shard_for_key

        spec = self.load.spec
        base = spec.key_space + 100_000 * (self.worker_id + 1)
        while True:
            self._cross_seq += 1
            a = base + 10 * self._cross_seq
            shard_a = shard_for_key(a, spec.shards)
            for b in range(a + 1, a + 10):
                if shard_for_key(b, spec.shards) != shard_a:
                    return a, b
            # All nine neighbours hashed onto shard_a; try the next base.


class _SnapshotReader:
    """One snapshot-reader session racing the writers.  Reads take no
    locks, so a reader can never deadlock a writer (or be its victim)."""

    def __init__(self, load: "_Load", rng: random.Random) -> None:
        self.load = load
        self.rng = rng
        self.reads = 0
        self.torn = 0

    def run(self) -> None:
        try:
            client = self.load.connect()
        except Exception:  # noqa: BLE001,RPR005 - server already stopping
            return
        key_space = self.load.spec.key_space
        try:
            while not self.load.stopping:
                key = self.rng.randrange(key_space)
                with client.snapshot():
                    first = client.fetch("t", "by_id", key, isolation="snapshot")
                    second = client.fetch("t", "by_id", key, isolation="snapshot")
                self.torn += first != second
                self.reads += 1
        except Exception:  # noqa: BLE001,RPR005 - engine crashed / server stopping
            return
        finally:
            _close_quietly(client)


class _Load:
    """One phase of client load: writer sessions and snapshot readers
    on their own threads, the shared ack count, and the crash trigger.

    The trigger fires on the ``crash_after_requests``-th ack
    (:meth:`fire_on_ack`, a racing crash) or when a committer reaches
    the flush window after it (:meth:`hold_flush`, which parks that
    leader with its batch taken until the crash resumes it as
    crashed).  :meth:`wait` returns when it fires, when every writer
    has finished, or at the timeout — whichever comes first."""

    def __init__(
        self,
        spec: TortureSpec,
        connect: Callable,
        seed: int,
        requests: int,
        session_seed: int = 1000003,
    ) -> None:
        self.spec = spec
        self.connect = connect
        self.requests = requests
        self.acked = 0
        self._cond = threading.Condition()
        self._fire_on_ack = False
        self._fired = False
        self._running = spec.sessions
        self.stopping = False
        self.sessions = [
            _Session(i, self, random.Random(seed * session_seed + i))
            for i in range(spec.sessions)
        ]
        self.readers = [
            _SnapshotReader(self, random.Random(seed * 69997 + i))
            for i in range(spec.snapshot_readers)
        ]
        # Daemons: a round that fails mid-load must not keep the process alive.
        self._threads = [threading.Thread(target=s.run, daemon=True) for s in self.sessions]
        self._reader_threads = [
            threading.Thread(target=r.run, daemon=True) for r in self.readers
        ]

    def own(self, keys: Iterable[int], prior: list[_Acked] | None = None) -> None:
        """Seed each session's acked state: present ``keys`` it owns,
        or (a second phase) what the ``prior`` phase's session knew."""
        for session in self.sessions:
            if prior is not None:
                session.state = dict(prior[session.worker_id].state)
                session.unknown = set(prior[session.worker_id].unknown)
            else:
                for key in keys:
                    if key % self.spec.sessions == session.worker_id:
                        session.state[key] = True

    def start(self) -> None:
        for thread in self._threads + self._reader_threads:
            thread.start()

    # -- the trigger -------------------------------------------------------

    def fire_on_ack(self) -> None:
        self._fire_on_ack = True

    def hold_flush(self, failpoint_registries: Iterable) -> None:
        """Arm the flush-window pause on every registry, before any
        request is sent, so the rendezvous cannot be missed however fast
        the sessions run."""
        for failpoints in failpoint_registries:
            failpoints.arm_pause(_FLUSH_WINDOW, when=self._flush_due)

    def _flush_due(self) -> bool:
        # Runs on the committing thread.  The paced GC's purge commits
        # too, and a crash on its commit alone would lose no client write.
        if (
            self.acked < self.spec.crash_after_requests
            or threading.current_thread().name == "mvcc-gc-pacer"
        ):
            return False
        with self._cond:
            self._fired = True
            self._cond.notify_all()
        return True

    def ack(self) -> None:
        with self._cond:
            self.acked += 1
            if self._fire_on_ack and self.acked >= self.spec.crash_after_requests:
                self._fired = True
                self._cond.notify_all()

    def session_done(self) -> None:
        with self._cond:
            self._running -= 1
            self._cond.notify_all()

    def _settled(self) -> bool:
        return self._fired or self._running == 0

    def wait(self, timeout: float = 10.0, tick: Callable[[], None] | None = None) -> None:
        """Block until the trigger fires or the writers are done;
        ``tick`` (if any) runs every millisecond meanwhile."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            with self._cond:
                step = min(remaining, 0.001) if tick else remaining
                if self._cond.wait_for(self._settled, timeout=max(step, 0.0)):
                    return
            if remaining <= 0:
                return
            if tick is not None:
                tick()

    # -- the end of the phase ----------------------------------------------

    def join(self, seed: int, timeout: float = 30.0) -> None:
        """Join the writers, then stop and join the readers; no
        snapshot double-read may have been torn."""
        deadline = time.monotonic() + timeout
        for threads in (self._threads, self._reader_threads):
            self.stopping = threads is self._reader_threads
            for thread in threads:
                thread.join(timeout=max(deadline - time.monotonic(), 0.1))
                _check(not thread.is_alive(), seed, "session thread wedged")
        torn = sum(r.torn for r in self.readers)
        _check(
            torn == 0,
            seed,
            f"{torn} torn snapshot double-reads (of {self.snapshot_reads})",
        )

    @property
    def snapshot_reads(self) -> int:
        return sum(r.reads for r in self.readers)


def _serve(db: Database, spec: TortureSpec):
    """A started in-process server for ``db``, sized for the load."""
    from repro.server.server import DatabaseServer

    return DatabaseServer(db, _server_config(spec)).start(listen=False)


def _server_config(spec: TortureSpec):
    from repro.server.server import ServerConfig

    return ServerConfig(
        workers=spec.sessions,
        queue_depth=spec.sessions * 4,
        request_timeout_seconds=10.0,
        drain_timeout_seconds=10.0,
    )


def _injector(spec: TortureSpec, salt: int) -> FaultInjector:
    return FaultInjector(
        FaultPlan(
            seed=spec.seed ^ salt,
            torn_write_probability=spec.torn_write_probability,
            transient_read_probability=spec.transient_read_probability,
            transient_write_probability=spec.transient_write_probability,
            permanent_read_probability=spec.permanent_probability,
            permanent_write_probability=spec.permanent_probability,
            wal_tail_loss_probability=spec.wal_tail_loss_probability,
        )
    )


# -- the scenarios ---------------------------------------------------------------


class _Scenario:
    """How one kind of round builds, crashes and recovers.

    ``build`` creates the database(s) and the load; ``crash`` runs the
    load to its trigger and crashes; ``recover`` recovers and returns the
    surviving keys (read with :func:`_read_state`); ``crash_again``
    crashes and recovers once more and returns them again (``None``:
    nothing to compare).  ``sessions`` holds what was acknowledged,
    ``loads`` every client load the round ran, and ``logs()`` the logs
    the end gates verify."""

    modes: tuple[str, ...] = ()
    defaults: dict = {}
    #: DatabaseConfig fields beyond the common client-load config.
    config: dict = {}

    def __init__(self, spec: TortureSpec) -> None:
        self.spec = spec
        self.report = TortureReport(
            seed=spec.seed, kind=spec.kind, crash_mode=spec.crash_mode
        )
        self.loads: list[_Load] = []
        self.sessions: list[_Acked] = []

    def crash_again(self) -> set[int] | None:
        self.db.crash()
        self.db.restart()
        return _read_state(self.db, self.spec.seed, "second restart")

    def logs(self) -> list:
        return [self.db.log]

    def close(self) -> None:
        self.db.close()

    # -- shared by the client-load kinds ------------------------------------

    def _config(self) -> DatabaseConfig:
        spec = self.spec
        return DatabaseConfig(
            page_size=spec.page_size,
            buffer_pool_pages=spec.buffer_pool_pages,
            group_commit=True,
            group_commit_max_wait_seconds=0.001,
            log_flush_latency_seconds=spec.log_flush_latency_seconds,
            lock_timeout_seconds=1.0,
            latch_timeout_seconds=5.0,
            **self.config,
        )

    def _initial_keys(self) -> list[int]:
        spec = self.spec
        return list(dict.fromkeys(i * 7 % spec.key_space for i in range(spec.initial_keys)))

    def _load(self, connect: Callable, seed: int, requests: int, **kwargs) -> _Load:
        load = _Load(self.spec, connect, seed, requests, **kwargs)
        self.loads.append(load)
        self.sessions = load.sessions
        return load

    def _serve_load(self, db: Database, initial: list[int]) -> None:
        """Serve ``db`` and set up the first load over the seed rows."""
        self.db = db
        self.server = _serve(db, self.spec)
        load = self._load(
            self.server.connect_loopback, self.spec.seed, self.spec.requests_per_session
        )
        load.own(initial)
        self._stats_before = db.stats.snapshot()

    def _run_to_trigger(self, victims: list, held: bool, tick=None) -> None:
        """Start the load and return when its trigger fires: at the
        flush window of one of ``victims`` (databases, or the cluster's
        coordinator) if ``held``, else at the racing ack count."""
        load = self.loads[0]
        if held:
            load.hold_flush([victim.failpoints for victim in victims])
        else:
            load.fire_on_ack()
        load.start()
        load.wait(tick=tick)
        self.report.parked_at_crash = sum(v.log.group_commit_parked for v in victims)

    def _crash_db(self) -> None:
        self.report.buffer_misses = self.db.stats.diff(self._stats_before).get(
            "buffer.misses", 0
        )
        self.db.crash()


class _Engine(_Scenario):
    """Single-threaded and in-process, under a seeded fault schedule
    that tears page writes, throws transient and permanent I/O errors
    and cuts the WAL tail; the database crashes on its own (a permanent
    fault escalates) or when the schedule says."""

    modes = ("scheduled",)
    defaults = dict(
        buffer_pool_pages=48,
        initial_keys=30,
        key_space=120,
        flush_probability=0.35,
        torn_write_probability=0.08,
        transient_read_probability=0.03,
        transient_write_probability=0.03,
        permanent_probability=0.01,
        wal_tail_loss_probability=0.5,
    )

    def build(self) -> None:
        spec = self.spec
        self.injector = _injector(spec, 0x5EED_FA17)
        # Build the schema and the seed rows before arming any fault:
        # the round's story starts from a known-good committed state.
        self.injector.disarm()
        # The round is single-threaded, so any lock wait is a self-block
        # that can only end in a timeout — keep it short.
        self.db = Database(
            DatabaseConfig(
                page_size=spec.page_size,
                buffer_pool_pages=spec.buffer_pool_pages,
                lock_timeout_seconds=0.05,
                latch_timeout_seconds=5.0,
            ),
            fault_injector=self.injector,
        )
        self.committed = _Acked(0)
        self.sessions = [self.committed]
        for key in _seed_table(self.db, range(0, spec.initial_keys * 3, 3)):
            self.committed.state[key] = True
        self.injector.arm()

    def crash(self) -> None:
        spec, db, report = self.spec, self.db, self.report
        rng = random.Random(spec.seed)
        open_txns: list = []
        pending: dict[int, dict[int, bool]] = {}
        for _ in range(spec.txn_count):
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
                                    pending[txn.txn_id][key] = True
                                else:
                                    db.delete_by_key(txn, "t", "by_id", key)
                                    pending[txn.txn_id][key] = False
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
                    self.committed.state.update(pending.pop(txn.txn_id))
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
                report.io_panic = True
                break
        if not report.io_panic:
            if rng.random() < spec.force_log_probability:
                db.log.force()  # make in-flight work durable → undo path
            db.crash()
        report.fault_counters = dict(self.injector.counters)
        # Post-crash, the storage keeps its damage but stops producing
        # new hard faults (transient read flakiness stays live,
        # exercising the retry path during recovery).
        self.injector.enter_recovery_mode()

    def recover(self) -> set[int]:
        restart = self.db.restart()
        self.report.log_tail_bytes_discarded = restart.log_tail_bytes_discarded
        self.report.pages_rebuilt = restart.scrub.pages_rebuilt
        self.report.losers_undone = restart.undo.transactions_rolled_back
        self.report.committed_keys = sum(self.committed.state.values())
        return _read_state(self.db, self.spec.seed, "first restart")

    def crash_again(self) -> set[int]:
        # No new faults are scheduled in recovery mode.  Odd seeds
        # recover with the background thread instead of this one, so
        # the drain runs under the same fault schedules.
        db = self.db
        db.crash()
        if self.spec.seed % 2:
            governor = db.instant_restart().governor
            _check(
                governor.wait_drained(timeout=30.0),
                self.spec.seed,
                f"second restart did not drain: {governor.progress()}",
            )
        else:
            db.restart()
        return _read_state(db, self.spec.seed, "second restart")



class _Server(_Scenario):
    """Client sessions against a group-committing server; the crash
    lands inside a group commit's take→flush window (``held_flush``), at
    a racing moment (``racing``), or after a drained shutdown
    (``graceful``)."""

    modes = ("held_flush", "racing", "graceful")
    defaults = dict(crash_after_requests=40)
    # Paced background GC races the client sessions, so the lockgraph
    # monitor sees GC's latch orderings under load.
    config = dict(mvcc_gc_interval_seconds=0.02)

    def build(self) -> None:
        db = Database(self._config())
        self._serve_load(db, _seed_table(db, self._initial_keys()))

    def crash(self) -> None:
        spec, load = self.spec, self.loads[0]
        if spec.crash_mode == "graceful":
            load.start()
            load.join(spec.seed)
            _check(self.server.shutdown(drain=True), spec.seed, "graceful drain timed out")
            self._crash_db()
            return
        self._run_to_trigger([self.db], held=spec.crash_mode == "held_flush")
        self._crash_db()
        load.join(spec.seed)
        self.server.abort()

    def recover(self) -> set[int]:
        db, report = self.db, self.report
        report.losers_undone = db.restart().undo.transactions_rolled_back
        report.flushes_saved = db.stats.diff(self._stats_before).get(
            "log.group_commit_flushes_saved", 0
        )
        snap = db.stats.snapshot()
        report.commits = snap.get("txn.committed", 0)
        report.sync_forces = snap.get("log.sync_forces", 0)
        return _read_state(db, self.spec.seed, "restart")


class _Failover(_Scenario):
    """The client load against a primary with a hot standby; the
    primary crashes and the standby is promoted.  The async modes first
    drain the dead primary's durable prefix, and the promoted state must
    equal the old primary's own recovery; ``sync`` promotes with no
    drain, so the commit gate alone carries the acked set."""

    modes = ("held_flush", "racing", "sync")

    def build(self) -> None:
        from repro.replication import Standby

        spec = self.spec
        db = Database(self._config())
        initial = _seed_table(db, self._initial_keys())
        db.enable_replication(sync=spec.crash_mode == "sync", sync_timeout_seconds=2.0)
        self._serve_load(db, initial)
        # start() seeds synchronously: by the time it returns the standby
        # is registered, so (in sync mode) no acked commit can slip past
        # the gate.
        self.standby = Standby(
            self.server.connect_loopback,
            name=f"failover-{spec.seed}",
            poll_wait_seconds=0.02,
        ).start()

    def crash(self) -> None:
        spec, db, load = self.spec, self.db, self.loads[0]
        self._run_to_trigger([db], held=spec.crash_mode == "held_flush")
        self._crash_db()
        horizon = db.log.flushed_lsn
        _check(
            self.standby.db.log.end_lsn <= horizon + 1,
            spec.seed,
            "standby received bytes past the primary's durable prefix",
        )
        if spec.crash_mode == "sync":
            # No drain: the dead primary's log is unreachable from now on.
            self.server.abort()
        load.join(spec.seed)
        # Otherwise drain the rest of the durable WAL from the dead
        # primary's stable storage (the engine is halted; its flushed
        # prefix is still servable), then cut the cord.
        _check(
            spec.crash_mode == "sync" or self.standby.wait_for_lsn(horizon, timeout=10.0),
            spec.seed,
            f"standby failed to drain the durable prefix to {horizon}: "
            f"{self.standby.status()}",
        )
        self.server.abort()

    def recover(self) -> set[int]:
        spec = self.spec
        undo = self.standby.promote().undo
        promoted = self.promoted = self.standby.db
        self.report.losers_undone = undo.transactions_rolled_back
        self.report.records_replayed = promoted.stats.snapshot().get(
            "standby.records_replayed", 0
        )
        survivors = _read_state(promoted, spec.seed, "promoted")
        # The promoted database is a read-write primary.
        sentinel = spec.key_space + 1 + spec.seed
        with promoted.transaction() as txn:
            promoted.insert(txn, "t", {"id": sentinel, "val": "post-failover"})
        with promoted.transaction() as txn:
            row = promoted.fetch(txn, "t", "by_id", sentinel)
        _check(row is not None, spec.seed, "promoted database refused writes")
        return survivors

    def crash_again(self) -> set[int] | None:
        if self.spec.crash_mode == "sync":
            return None
        # The drained standby saw the primary's whole durable prefix, so
        # promotion must land on exactly the state restarting the old
        # primary produces.
        self.db.restart()
        self.report.primary_agreement_checked = True
        return _read_state(self.db, self.spec.seed, "old primary's restart")

    def logs(self) -> list:
        return [self.db.log, self.promoted.log]

    def close(self) -> None:
        self.promoted.close()
        self.db.close()


class _Recovering(_Scenario):
    """Instant restart under live traffic.  The load runs with torn
    writes and WAL-tail loss armed; the restart opens with no redo
    done, every key of known acked state is read through the still
    recovering server, then a second load runs during the drain."""

    modes = ("racing",)
    defaults = dict(
        buffer_pool_pages=96,
        initial_keys=24,
        flush_probability=0.2,
        torn_write_probability=0.05,
        wal_tail_loss_probability=0.3,
    )

    def build(self) -> None:
        spec = self.spec
        self.injector = _injector(spec, 0x1257A27)
        self.injector.disarm()
        db = Database(self._config(), fault_injector=self.injector)
        initial = _seed_table(db, self._initial_keys())
        db.flush_all_pages()  # a real on-disk working set for the lazy scrub
        self.injector.arm()
        self._serve_load(db, initial)

    def crash(self) -> None:
        spec, db = self.spec, self.db
        flush_rng = random.Random(spec.seed ^ 0xF1A5)

        def steal_pages() -> None:
            # Dirty pages reach disk now and then, so the crash leaves a
            # mix of current, stale, and torn on-disk pages.
            if flush_rng.random() < spec.flush_probability:
                dirty = list(db.buffer.dirty_page_table())
                for page_id in flush_rng.sample(dirty, k=min(len(dirty), 2)):
                    try:
                        db.flush_page(page_id)
                    except Exception:  # noqa: BLE001,RPR005 - racing with the load
                        pass

        self._run_to_trigger([db], held=False, tick=steal_pages)
        self._crash_db()
        # Abort before joining: post-crash requests can otherwise burn a
        # lock/latch timeout each against the dead engine, and a session
        # with many requests left would outlive the join budget.
        self.server.abort()
        self.loads[0].join(spec.seed)
        self.report.fault_counters = dict(self.injector.counters)
        self.injector.enter_recovery_mode()

    def recover(self) -> set[int]:
        spec, db, report = self.spec, self.db, self.report
        # No background thread yet: the database is open but still
        # recovering, so the reads below must pay on-demand recovery.
        restart = db.instant_restart(background=False)
        governor = db.recovery
        _check(governor is not None, spec.seed, "instant restart installed no governor")
        report.losers_undone = restart.undo.transactions_rolled_back
        report.pages_pending_at_open = governor.progress()["pages_pending"]
        self.server = _serve(db, spec)

        # Every key of known acked state is read through the recovering
        # server: an acked commit lost or a pre-crash loser visible would
        # both surface here.
        known = sorted(
            key
            for session in self.sessions
            for key in session.state
            if key not in session.unknown
        )
        client = self.server.connect_loopback()
        try:
            present = {key for key in known if client.fetch("t", "by_id", key) is not None}
        finally:
            client.close()
        report.stale_reads_checked = len(known)
        _check_acked(spec.seed, self.sessions, present, "while recovering")

        # Background drain, and a second load fired at it.
        governor.start_background()
        first = self.sessions
        load = self._load(
            self.server.connect_loopback,
            spec.seed + 7777,
            spec.phase2_requests_per_session,
        )
        load.own((), prior=first)
        load.start()
        load.join(spec.seed)
        _check(
            governor.drain(timeout=30.0),
            spec.seed,
            f"background redo did not drain: {governor.progress()}",
        )
        _check(db.recovery_state == "steady", spec.seed, "state stuck at recovering")
        self.server.abort()
        snap = db.stats.snapshot()
        report.recovered_ondemand = snap.get("recovery.pages_recovered_ondemand", 0)
        report.recovered_background = snap.get("recovery.pages_recovered_background", 0)
        report.pages_rebuilt = restart.scrub.pages_rebuilt
        # The base crash_again then checks that stop-the-world recovery
        # reaches exactly the state instant restart left.
        return _read_state(db, spec.seed, "after the drain")


class _Cluster(_Scenario):
    """Single-shard and cross-shard (2PC) load against a sharded
    cluster; the crash lands in one shard's flush window, the
    coordinator's, or both.  A cross-shard transaction must land on
    all of its participants or on none."""

    modes = ("shard", "coordinator", "both")
    defaults = dict(
        page_size=4096,
        buffer_pool_pages=256,
        initial_keys=0,
        key_space=120,
        requests_per_session=20,
        insert_fraction=0.7,
        crash_after_requests=16,
        cross_shard_fraction=0.45,
    )

    def build(self) -> None:
        from repro.cluster.cluster import Cluster

        spec = self.spec
        self.cluster = Cluster(
            num_shards=spec.shards,
            config=self._config(),
            server_config=_server_config(spec),
        )
        self.cluster.create_table("t")
        self.cluster.create_index("t", "by_id", column="id", unique=True)
        self.victim = random.Random(spec.seed * 60013 + 7).randrange(spec.shards)
        self._load(
            self.cluster.client,
            spec.seed,
            spec.requests_per_session,
            session_seed=999983,
        )

    def _hits(self, target: str) -> bool:
        return self.spec.crash_mode in (target, "both")

    def crash(self) -> None:
        cluster = self.cluster
        # Commits, prepares and decisions park in the victim logs'
        # take→flush window, and the crash lands on them.
        victims = []
        if self._hits("shard"):
            victims.append(cluster.shards[self.victim].db)
        if self._hits("coordinator"):
            victims.append(cluster.coordinator)
        self._run_to_trigger(victims, held=True)
        # Each crash resumes its log's paused leader as crashed.
        if self._hits("coordinator"):
            cluster.crash_coordinator()
        if self._hits("shard"):
            cluster.crash_shard(self.victim)
        self.loads[0].join(self.spec.seed)

    def _read(self, label: str) -> set[int]:
        _check(
            all(not gids for gids in self.cluster.indoubt_gids().values()),
            self.spec.seed,
            f"{label}: in-doubt branches remain after resolution: "
            f"{self.cluster.indoubt_gids()}",
        )
        survivors: set[int] = set()
        for shard in self.cluster.shards:
            survivors |= _read_state(
                shard.db, self.spec.seed, f"{label}, shard {shard.shard_id}"
            )
        return survivors

    def recover(self) -> set[int]:
        if self._hits("shard"):
            self.cluster.restart_shard(self.victim)
        if self._hits("coordinator"):
            self.cluster.restart_coordinator()
        self.report.indoubt_resolved = self.cluster.resolve_indoubt()
        return self._read("recovery")

    def crash_again(self) -> set[int]:
        for shard_id in range(self.spec.shards):
            self.cluster.crash_shard(shard_id)
            self.cluster.restart_shard(shard_id)
        self.cluster.crash_coordinator()
        self.cluster.restart_coordinator()
        self.cluster.resolve_indoubt()
        return self._read("second cluster-wide restart")

    def logs(self) -> list:
        return [s.db.log for s in self.cluster.shards] + [self.cluster.coordinator.log]

    def close(self) -> None:
        self.cluster.close()


_SCENARIOS: dict[str, type[_Scenario]] = {
    "engine": _Engine,
    "server": _Server,
    "failover": _Failover,
    "recovering": _Recovering,
    "cluster": _Cluster,
}
KINDS = tuple(_SCENARIOS)


# -- the runner ------------------------------------------------------------------


def run_round(spec: TortureSpec) -> TortureReport:
    """Run one round — build, load, crash, recover, check the acked
    state, crash again and compare, end gates — and return its report
    (raises :class:`TortureInvariantError` naming the seed)."""
    seed = spec.seed
    label = f"{spec.kind} {spec.crash_mode}"
    scenario = _SCENARIOS[spec.kind](spec)
    enable_lockgraph()
    scenario.build()
    scenario.crash()
    survivors = scenario.recover()
    _check_acked(seed, scenario.sessions, survivors, label)
    again = scenario.crash_again()
    if again is not None:
        _check(
            again == survivors,
            seed,
            f"{label}: the second recovery diverged "
            f"(only-first={sorted(survivors - again)}, "
            f"only-second={sorted(again - survivors)})",
        )
    for log in scenario.logs():
        wal = check_log(log)
        _check(
            wal.ok,
            seed,
            f"{label}: walcheck failed: "
            + "; ".join(f.format() for f in wal.findings[:5]),
        )
    monitor = get_latch_monitor()
    if monitor is not None:
        monitor.assert_acyclic()
    scenario.close()

    report = scenario.report
    for load in scenario.loads:
        report.acked_requests += load.acked
        report.lost_commits += sum(s.lost for s in load.sessions)
        report.snapshot_reads += load.snapshot_reads
    if scenario.loads:
        unknown = set().union(*(s.unknown for s in scenario.sessions))
        report.indeterminate_keys = len(unknown)
    for session in scenario.sessions:
        for outcome in session.cross.values():
            report.acked_cross += outcome == "acked"
            report.lost_cross += outcome == "lost"
            report.aborted_cross += outcome == "aborted"
            report.unknown_cross += outcome == "unknown"
    return report


def run_sweep(kind: str, seeds: Iterable[int], **overrides) -> list[TortureReport]:
    """One round of ``kind`` per seed, cycling the kind's crash modes
    (seed ``s`` runs mode ``s % len(modes)``); ``overrides`` set
    :class:`TortureSpec` fields."""
    modes = _SCENARIOS[kind].modes
    return [
        run_round(
            TortureSpec(
                kind=kind, seed=seed, crash_mode=modes[seed % len(modes)], **overrides
            )
        )
        for seed in seeds
    ]


def main(argv: list[str] | None = None) -> int:
    """CLI: a seeded sweep of one kind, its reports printed as JSON.

    ``python -m repro.harness.torture --kind recovering --seeds 30
    --snapshot-readers 2`` races snapshot readers against the load and
    the background drain (each double-read inside one snapshot must be
    stable; the round fails on any torn read)."""
    import argparse
    import dataclasses
    import json

    parser = argparse.ArgumentParser(description="seeded crash torture")
    parser.add_argument("--kind", choices=KINDS, default="server")
    parser.add_argument("--seeds", type=int, default=3, help="rounds to run")
    parser.add_argument("--first-seed", type=int, default=0)
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
    try:
        reports = run_sweep(
            args.kind,
            range(args.first_seed, args.first_seed + args.seeds),
            snapshot_readers=args.snapshot_readers,
        )
    finally:
        if args.lockgraph_dump:
            # Each round installs its own monitor; the dump is the graph
            # of the last round that ran.
            monitor = get_latch_monitor() or monitor
            monitor.dump_json(args.lockgraph_dump)
    print(json.dumps([dataclasses.asdict(r) for r in reports], indent=2))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
