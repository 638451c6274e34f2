"""The six workloads: set-up, seeded operation streams, closed loops,
and the correctness check each run ends with.

Ground rules (``bench/README.md`` has the reasons): closed loop, one
load-generating process, 1 embedded caller or 2 loopback sessions;
table ``t`` with a unique index ``by_id`` on integer ``id`` and a
16-byte pad (24 user bytes per row); in-memory simulated disk and log
with an unpriced flush; ``DatabaseConfig`` defaults except the fields
each workload states.  The seed changes only the generated keys and
the order of operations; the engine sees only generated inputs.

Every caller keeps an exact model of the keys it owns (key -> present)
and chooses inserts among its absent keys and deletes among its
present ones, so no statement is expected to fail.  A refusal the
system is entitled to (deadlock victim, lock timeout, overload) counts
as a failed operation; any other error, and any result that disagrees
with the model, also makes the run incorrect.
"""

from __future__ import annotations

import random
import threading
from array import array
from dataclasses import dataclass, field, fields
from statistics import median
from time import perf_counter
from typing import Callable, Iterator

from repro import Database, DatabaseConfig
from repro.common.config import DEFAULT_CONFIG
from repro.common.errors import (
    DeadlockError,
    LockTimeoutError,
    RequestTimeoutError,
    ServerOverloadedError,
)
from repro.harness.loadgen import LatencyRecorder
from repro.replication.catalog import catalog_snapshot, install_catalog
from repro.server.server import DatabaseServer, ServerConfig

from bench.calibration import SpeedMeter
from bench.trace import Totals, Tracer

TABLE = "t"
INDEX = "by_id"
PAD = "v" * 16
USER_BYTES_PER_ROW = 24  # an 8-byte integer id and the 16-byte pad

#: What a healthy system may answer under contention or overload: the
#: operation counts as failed, but the run's outputs are not wrong.
REFUSALS = (DeadlockError, LockTimeoutError, ServerOverloadedError, RequestTimeoutError)

#: How many times a run sets up (the last one is measured); ``setup_s``
#: is the median, so one slow set-up does not read as a regression.
SETUP_REPEATS = 3

#: One in this many operations of a traced run keeps its full span tree.
SAMPLE_EVERY = 500

#: Slices an untraced run is cut into.  At the driver's run length each
#: caller's slice holds at least 1000 operations, so its 99th percentile
#: has 10 samples beyond it.
SLICES = 10


def row_for(key: int) -> dict:
    return {"id": key, "pad": PAD}


# -- what a measured phase returns ----------------------------------------------


@dataclass
class Slice:
    """A stretch of one caller's run, in reference seconds
    (``bench/calibration.py``)."""

    ops: int
    busy_s: float
    latency: dict[str, LatencyRecorder]
    speed: float
    """Reference seconds per wall second while it ran."""
    complete: bool
    """False for the stretch a phase ended in, which is shorter."""


class Recorder:
    """One caller's tally, cut into slices of ``slice_ops`` operations.

    The box's speed shifts every few seconds, so a run reports the
    median slice (its throughput, its latency percentiles): a stretch
    at another speed, or one the host disturbed, moves no reported
    value.  ``busy_s`` is the sum of the caller's operation intervals:
    a closed-loop caller with no think time is busy for exactly the
    time its operations take, and generating the next operation,
    checking the last result and calibrating are not the system's
    time."""

    _SUMMED = (
        "wall_s", "busy_s", "ops", "failed", "misses", "scans", "rows_scanned",
        "inserts", "deletes",
    )  # fmt: skip

    def __init__(self, slice_ops: float = float("inf")) -> None:
        self.slice_ops = slice_ops
        self.meter = SpeedMeter()
        self.slices: list[Slice] = []
        self.wall_s = 0.0
        """Busy time as the clock read it: what the budget view sets
        the traced layer times against."""
        self.busy_s = 0.0
        """Busy time in reference seconds."""
        self.ops = 0
        self.failed = 0
        self.misses = 0
        """Fetches of an absent key: an expected outcome, not a failure."""
        self.scans = 0
        self.rows_scanned = 0
        self.inserts = 0
        self.deletes = 0
        self.problems: list[str] = []
        self._open: dict[str, array] = {}
        self._open_ops = 0
        self._open_busy = 0.0

    def add(self, kind: str, seconds: float) -> None:
        """One operation of ``kind`` made its caller wait ``seconds``."""
        samples = self._open.get(kind)
        if samples is None:
            samples = self._open[kind] = array("d")
        samples.append(seconds)
        self._open_ops += 1

    def busy(self, seconds: float) -> None:
        self._open_busy += seconds

    def count(self) -> None:
        """One operation that leaves no latency sample."""
        self._open_ops += 1

    def fail(self, message: str) -> None:
        """An operation whose outcome is wrong: it fails the run."""
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(message)

    def cut(self, complete: bool = True) -> None:
        """End the open slice."""
        self.meter.sample()
        speed = self.meter.take()
        latency = {}
        for kind, samples in self._open.items():
            recorder = latency[kind] = LatencyRecorder()
            for seconds in samples:
                recorder.add(seconds * speed)
        self.slices.append(
            Slice(self._open_ops, self._open_busy * speed, latency, speed, complete)
        )
        self.ops += self._open_ops
        self.wall_s += self._open_busy
        self.busy_s += self._open_busy * speed
        self._open = {}
        self._open_ops = 0
        self._open_busy = 0.0

    def cut_if_full(self) -> None:
        if self._open_ops >= self.slice_ops:
            self.cut()

    def close(self) -> None:
        """Call once, after the last operation."""
        if self._open_ops:
            self.cut(complete=False)

    def merge(self, other: "Recorder") -> None:
        """Add a closed recorder's results to this one."""
        self.slices.extend(other.slices)
        for name in self._SUMMED:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.problems.extend(other.problems)

    def whole_slices(self) -> list[Slice]:
        """The complete slices (every slice of a phase too short to
        complete one)."""
        return [s for s in self.slices if s.complete] or self.slices

    def median_throughput(self) -> float:
        return median(s.ops / s.busy_s for s in self.whole_slices())

    def latency(self, kind: str) -> LatencyRecorder:
        """Every sample of one operation type."""
        merged = LatencyRecorder()
        for s in self.slices:
            if kind in s.latency:
                merged.merge(s.latency[kind])
        return merged

    def kinds(self) -> list[str]:
        return sorted({kind for s in self.slices for kind in s.latency})


@dataclass
class Measured:
    """Everything one measured phase produced."""

    total: Recorder
    throughput_ops_s: float
    """In reference seconds: the callers' median slices, summed."""
    stats: dict[str, int]
    """``db.stats`` deltas over the phase."""
    log_bytes: int = 0
    """WAL bytes appended over the phase (``log.end_lsn`` delta)."""
    callers: int = 1
    extras: dict[str, float] = field(default_factory=dict)
    """Workload-specific end-to-end values (``restart_s``, ``ttft_s``)."""
    layer: dict[str, float] = field(default_factory=dict)
    """Workload-specific per-layer values measured directly."""
    totals: dict[str, Totals] | None = None
    """Per-function span sums of a traced phase."""
    trace_ops: int = 0
    """What the span sums are divided by (operations they cover)."""
    gauges: dict[str, int] = field(default_factory=dict)
    """Absolute high-water marks at the end of the phase."""
    problems: list[str] = field(default_factory=list)
    """Correctness findings of the phase; any makes the run incorrect."""


# -- the key model ------------------------------------------------------------


class KeyModel:
    """Exact model of the keys one caller owns: key -> present, with
    O(1) uniform choice among the present and among the absent."""

    def __init__(self, keys: Iterator[int], present: Callable[[int], bool]) -> None:
        self._lists: dict[bool, list[int]] = {True: [], False: []}
        self._slot: dict[int, int] = {}
        self._present: dict[int, bool] = {}
        for key in keys:
            self._put(key, present(key))

    def _put(self, key: int, present: bool) -> None:
        members = self._lists[present]
        self._slot[key] = len(members)
        members.append(key)
        self._present[key] = present

    def set(self, key: int, present: bool) -> None:
        members = self._lists[self._present[key]]
        last = members.pop()
        if last != key:
            slot = self._slot[key]
            members[slot] = last
            self._slot[last] = slot
        self._put(key, present)

    def has(self, key: int) -> bool:
        return self._present.get(key, False)

    def count(self, present: bool) -> int:
        return len(self._lists[present])

    def pick(self, rng: random.Random, present: bool) -> int:
        members = self._lists[present]
        return members[rng.randrange(len(members))]

    def present_keys(self) -> list[int]:
        return sorted(self._lists[True])


# -- operation streams -----------------------------------------------------------


@dataclass(frozen=True)
class Mix:
    """Shares of each operation type in a stream."""

    fetch: float = 0.0
    scan: float = 0.0
    insert: float = 0.0
    delete: float = 0.0
    scan_len: int = 10
    absent_fetch_share: float = 0.1
    """Share of fetches aimed at an absent key, so the next-key lock
    path of a not-found Fetch (paper §2.2) runs."""
    rollback_every: int = 0
    """Every n-th operation is a transaction of 4 writes that rolls
    back (the CLR/undo path); 0 = never."""


class OpStream:
    """Seeded stream of (kind, argument, expected result) for one caller.

    The model is updated when an operation is generated, which is
    exact because the caller runs its operations in order and nobody
    else writes its keys."""

    def __init__(
        self,
        rng: random.Random,
        model: KeyModel,
        mix: Mix,
        key_space: int,
        owns: Callable[[int], bool] = lambda key: True,
    ) -> None:
        self.rng = rng
        self.model = model
        self.mix = mix
        self.key_space = key_space
        self.owns = owns
        self._issued = 0

    def next(self) -> tuple[str, object, object]:
        mix, rng, model = self.mix, self.rng, self.model
        self._issued += 1
        if mix.rollback_every and self._issued % mix.rollback_every == 0:
            inserts = {model.pick(rng, False), model.pick(rng, False)}
            deletes = {model.pick(rng, True), model.pick(rng, True)}
            return "rollback", (sorted(inserts), sorted(deletes)), None
        roll = rng.random()
        if roll < mix.fetch:
            present = rng.random() >= mix.absent_fetch_share
            if not model.count(present):
                present = not present
            key = model.pick(rng, present)
            return "fetch", key, row_for(key) if present else None
        roll -= mix.fetch
        if roll < mix.scan:
            low = rng.randrange(max(1, self.key_space - mix.scan_len))
            window = range(low, low + mix.scan_len)
            return "scan", low, [k for k in window if model.has(k)]
        roll -= mix.scan
        insert = roll < mix.insert
        if not model.count(not insert):  # nothing left to insert (or delete)
            insert = not insert
        key = model.pick(rng, not insert)
        model.set(key, insert)
        return ("insert" if insert else "delete"), key, None

    def refused(self, kind: str, arg: object) -> None:
        """The operation was refused (deadlock victim, timeout,
        overload): take its effect back out of the model."""
        if kind in ("insert", "delete"):
            self.model.set(arg, kind == "delete")

    def verify(self, kind: str, arg: object, expected: object, result: object) -> str | None:
        """None if ``result`` agrees with the model, else what is wrong."""
        if kind == "fetch" and result != expected:
            return f"fetch({arg}) returned {result!r}, model says {expected!r}"
        if kind == "scan":
            got = [row["id"] for row in result if self.owns(row["id"])]
            if got != expected:
                return f"scan({arg}) returned ids {got}, model says {expected}"
        if kind == "delete" and result != row_for(arg):
            return f"delete({arg}) returned {result!r}"
        return None


# -- callers ------------------------------------------------------------------------


class Caller:
    """One closed-loop caller: ``step`` runs its next operation (or
    pipelined batch), times it, checks it, and returns how many
    operations that was."""

    stream: OpStream
    ops: dict[str, Callable]

    def trace(self, tracer: Tracer) -> None:
        self.ops = {kind: tracer.root(kind, fn) for kind, fn in self.ops.items()}

    def step(self, rec: Recorder) -> int:
        kind, arg, expected = self.stream.next()
        op = self.ops[kind]
        start = perf_counter()
        try:
            result = op(arg)
        except Exception as exc:  # noqa: BLE001 - any error is a failed operation
            result = exc
        waited = perf_counter() - start
        rec.add(kind, waited)
        rec.busy(waited)
        self.settle(rec, kind, arg, expected, result)
        return 1

    def settle(self, rec: Recorder, kind: str, arg: object, expected: object, result) -> None:
        """Count one finished operation and check its result."""
        if isinstance(result, REFUSALS):
            rec.failed += 1
            self.stream.refused(kind, arg)
        elif isinstance(result, Exception):
            rec.fail(f"{kind}({arg}) raised {type(result).__name__}: {result}")
        else:
            self.tally(rec, kind, expected, result)
            problem = self.stream.verify(kind, arg, expected, result)
            if problem:
                rec.fail(problem)

    @staticmethod
    def tally(rec: Recorder, kind: str, expected: object, result: object) -> None:
        if kind == "fetch" and expected is None:
            rec.misses += 1
        elif kind == "scan":
            rec.scans += 1
            rec.rows_scanned += len(result)
        elif kind == "insert":
            rec.inserts += 1
        elif kind == "delete":
            rec.deletes += 1


class EmbeddedCaller(Caller):
    """Calls ``Database`` directly; every operation is its own
    transaction (begin + statement + commit)."""

    def __init__(self, db: Database, stream: OpStream) -> None:
        self.db = db
        self.stream = stream
        self.ops = {
            "fetch": self._fetch,
            "scan": self._scan,
            "insert": self._insert,
            "delete": self._delete,
            "rollback": self._rollback,
        }

    def _autocommit(self, statement: Callable, *args: object) -> object:
        db = self.db
        txn = db.begin()
        try:
            result = statement(txn, *args)
        except BaseException:
            if txn.is_active:
                db.rollback(txn)
            raise
        db.commit(txn)
        return result

    def _fetch(self, key: int):
        return self._autocommit(self.db.fetch, TABLE, INDEX, key)

    def _scan_rows(self, txn, low: int) -> list[dict]:
        high = low + self.stream.mix.scan_len - 1
        return [row for _, row in self.db.scan(txn, TABLE, INDEX, low=low, high=high)]

    def _scan(self, low: int):
        return self._autocommit(self._scan_rows, low)

    def _insert(self, key: int):
        return self._autocommit(self.db.insert, TABLE, row_for(key))

    def _delete(self, key: int):
        return self._autocommit(self.db.delete_by_key, TABLE, INDEX, key)

    def _rollback(self, keys: tuple[list[int], list[int]]) -> None:
        db = self.db
        txn = db.begin()
        try:
            for key in keys[0]:
                db.insert(txn, TABLE, row_for(key))
            for key in keys[1]:
                db.delete_by_key(txn, TABLE, INDEX, key)
        finally:
            db.rollback(txn)


class SessionCaller(Caller):
    """One loopback v2 session, strict request/response: every
    operation is one autocommit request."""

    def __init__(self, client, stream: OpStream) -> None:
        self.client = client
        self.stream = stream
        scan_len = stream.mix.scan_len
        self.ops = {
            "fetch": lambda key: client.fetch(TABLE, INDEX, key),
            "scan": lambda low: client.scan(TABLE, INDEX, low=low, high=low + scan_len - 1),
            "insert": lambda key: client.insert(TABLE, row_for(key)),
            "delete": lambda key: client.delete_by_key(TABLE, INDEX, key),
        }


class PipelinedCaller(Caller):
    """One loopback v2 session that queues ``depth`` autocommit
    requests per flush.  Every operation of a flush records the flush's
    wall time — the time its caller waited (``harness.loadgen``'s rule)."""

    def __init__(self, client, stream: OpStream, depth: int) -> None:
        self.client = client
        self.stream = stream
        self.depth = depth
        self.ops = {"flush": self._flush}

    def _flush(self, batch: list[tuple[str, object, object]]) -> list:
        scan_len = self.stream.mix.scan_len
        pipe = self.client.pipeline(depth=len(batch) + 1)
        futures = []
        for kind, arg, _ in batch:
            if kind == "fetch":
                futures.append(pipe.fetch(TABLE, INDEX, arg))
            elif kind == "insert":
                futures.append(pipe.insert(TABLE, row_for(arg)))
            elif kind == "delete":
                futures.append(pipe.delete_by_key(TABLE, INDEX, arg))
            else:
                futures.append(
                    pipe.request(
                        "scan", table=TABLE, index=INDEX, low=arg, high=arg + scan_len - 1
                    )
                )
        pipe.flush()
        return futures

    def step(self, rec: Recorder) -> int:
        batch = [self.stream.next() for _ in range(self.depth)]
        start = perf_counter()
        try:
            futures = self.ops["flush"](batch)
        except Exception as exc:  # noqa: BLE001 - the whole flush failed
            futures = [exc] * len(batch)
        waited = perf_counter() - start
        rec.busy(waited)
        for (kind, arg, expected), future in zip(batch, futures):
            rec.add(kind, waited)
            if isinstance(future, Exception):
                result = future
            else:
                result = future.error if future.error is not None else future.result()
            self.settle(rec, kind, arg, expected, result)
        return len(batch)


def drive(callers: list[Caller], ops: int, slice_ops: int) -> list[Recorder]:
    """Run the callers' closed loops for ``ops`` operations in all, cut
    into slices of ``slice_ops``: inline for one caller, one thread
    each for more."""
    recorders = [Recorder(-(-slice_ops // len(callers))) for _ in callers]
    limit = -(-ops // len(callers))

    def loop(caller: Caller, rec: Recorder) -> None:
        done = 0
        try:
            while done < limit:
                rec.meter.maybe_sample()
                done += caller.step(rec)
                rec.cut_if_full()
        except Exception as exc:  # noqa: BLE001 - a caller that dies fails the run
            rec.fail(f"caller stopped: {type(exc).__name__}: {exc}")
        rec.close()

    if len(callers) == 1:
        loop(callers[0], recorders[0])
        return recorders
    threads = [
        threading.Thread(target=loop, args=pair, name=f"bench-session-{i}")
        for i, pair in enumerate(zip(callers, recorders))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return recorders


# -- workloads ------------------------------------------------------------------------


def config_overrides(config: DatabaseConfig) -> dict:
    """The fields of ``config`` that differ from the defaults."""
    return {
        f.name: getattr(config, f.name)
        for f in fields(config)
        if getattr(config, f.name) != getattr(DEFAULT_CONFIG, f.name)
    }


def new_database(config: DatabaseConfig) -> Database:
    db = Database(config)
    db.create_table(TABLE)
    db.create_index(TABLE, INDEX, column="id", unique=True)
    return db


def preload(db: Database, keys: list[int], meter: SpeedMeter) -> None:
    for start in range(0, len(keys), 256):
        meter.maybe_sample()
        with db.transaction() as txn:
            for key in keys[start : start + 256]:
                db.insert(txn, TABLE, row_for(key))


def final_state_problems(db: Database, expected_keys: list[int]) -> list[str]:
    """The end-of-run check: a full scan equals the model and every
    index passes its structure check."""
    problems = []
    with db.transaction() as txn:
        rows = [row for _, row in db.scan(txn, TABLE, INDEX)]
    if rows != [row_for(key) for key in expected_keys]:
        got = [row["id"] for row in rows]
        problems.append(
            f"full scan has {len(got)} rows, model has {len(expected_keys)}; "
            f"first difference near {_first_difference(got, expected_keys)}"
        )
    for index, found in db.verify_indexes().items():
        problems.append(f"index {index}: {found[:3]}")
    return problems


def _first_difference(got: list[int], expected: list[int]) -> object:
    for a, b in zip(got, expected):
        if a != b:
            return (a, b)
    return "the shorter one's end"


class Workload:
    """Set-up, measured phase and final check of one workload."""

    name: str
    why: str
    rate: float
    """Operations per second this tree does on the reference machine,
    rounded.  It turns the length asked for into the operation count
    of the run, so that the work done depends neither on how fast the
    machine is at the moment nor on how fast the tree has become."""
    config: DatabaseConfig = DEFAULT_CONFIG

    def ops_for(self, seconds: float, scale: float) -> int:
        """Operations of an untraced measured phase of nominally
        ``seconds`` (a traced run does a quarter of them)."""
        return max(1, round(self.rate * seconds * scale))

    def setup(self, seed: int, scale: float, meter: SpeedMeter) -> None:
        raise NotImplementedError

    def measure(self, ops: int, slice_ops: int, tracer: Tracer | None) -> Measured:
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Tear down and return what the final check found wrong."""
        raise NotImplementedError

    def discard(self) -> None:
        """Drop a set-up that will not be measured."""

    def describe(self) -> dict:
        return {"config": config_overrides(self.config)}


class CallerWorkload(Workload):
    """A workload whose measured phase is closed loops of ``Caller``s
    against one database."""

    db: Database
    callers: list[Caller]
    read_only = False
    """Read-only commits append nothing: 0 WAL bytes is asserted."""

    def measure(self, ops: int, slice_ops: int, tracer: Tracer | None) -> Measured:
        plain = [caller.ops for caller in self.callers]
        if tracer is not None:
            for caller in self.callers:
                caller.trace(tracer)
            tracer.install()
        db = self.db
        before = db.stats.snapshot()
        log_before = db.log.end_lsn
        try:
            recorders = drive(self.callers, ops, slice_ops)
        finally:
            if tracer is not None:
                tracer.uninstall()
                for caller, ops in zip(self.callers, plain):
                    caller.ops = ops
        total = Recorder()
        for rec in recorders:
            total.merge(rec)
        log_bytes = db.log.end_lsn - log_before
        problems = list(total.problems)
        if self.read_only and log_bytes:
            problems.append(f"a read-only workload appended {log_bytes} WAL bytes")
        return Measured(
            total=total,
            throughput_ops_s=sum(r.median_throughput() for r in recorders if r.ops),
            stats=db.stats.diff(before),
            log_bytes=log_bytes,
            callers=len(self.callers),
            totals=tracer.totals() if tracer is not None else None,
            trace_ops=total.ops,
            gauges={k: db.stats.get(k) for k in ("server.batch_peak", "server.queue_peak")},
            problems=problems,
        )


class EmbeddedWorkload(CallerWorkload):
    """One thread on ``Database``."""

    def __init__(
        self,
        name: str,
        why: str,
        rate: float,
        pool_pages: int,
        key_space: int,
        absent_every: int,
        shuffle_preload: bool,
        mix: Mix,
    ) -> None:
        self.name = name
        self.why = why
        self.rate = rate
        self.config = DatabaseConfig(buffer_pool_pages=pool_pages)
        self.key_space = key_space
        #: Every n-th key of the key space starts absent.
        self.absent_every = absent_every
        self.shuffle_preload = shuffle_preload
        self.mix = mix
        self.read_only = not (mix.insert or mix.delete or mix.rollback_every)

    def setup(self, seed: int, scale: float, meter: SpeedMeter) -> None:
        rng = random.Random(seed)
        key_space = max(64, round(self.key_space * scale))
        every = self.absent_every
        model = KeyModel(iter(range(key_space)), lambda k: k % every != every - 1)
        keys = model.present_keys()
        if self.shuffle_preload:
            rng.shuffle(keys)
        self.db = new_database(self.config)
        preload(self.db, keys, meter)
        self.model = model
        self.callers = [
            EmbeddedCaller(self.db, OpStream(rng, model, self.mix, key_space))
        ]

    def finish(self) -> list[str]:
        problems = final_state_problems(self.db, self.model.present_keys())
        self.db.close()
        return problems

    def discard(self) -> None:
        self.db.close()


class ServerWorkload(CallerWorkload):
    """Two loopback v2 sessions against an in-process server.  Session
    ``s`` owns the keys with ``key % 2 == s``, so each keeps an exact
    model while scans still cross both sessions' keys."""

    SESSIONS = 2
    KEY_SPACE = 4000
    MIX = Mix(fetch=0.5, insert=0.2, delete=0.2, scan=0.1, scan_len=10)
    #: The database settings ``repro.cluster.shard_proc`` ships, with a
    #: 512-page pool.
    config = DatabaseConfig(
        buffer_pool_pages=512,
        group_commit=True,
        group_commit_max_wait_seconds=0.001,
        lock_timeout_seconds=2.0,
    )
    server_config = ServerConfig(workers=2)

    def __init__(self, name: str, why: str, rate: float, pipeline_depth: int) -> None:
        self.name = name
        self.why = why
        self.rate = rate
        self.pipeline_depth = pipeline_depth

    def setup(self, seed: int, scale: float, meter: SpeedMeter) -> None:
        key_space = max(64, round(self.KEY_SPACE * scale))
        sessions = self.SESSIONS
        self.db = new_database(self.config)
        # Half of every session's keys start present.
        preload(
            self.db, [k for k in range(key_space) if (k // sessions) % 2 == 0], meter
        )
        self.server = DatabaseServer(self.db, self.server_config).start(listen=False)
        self.clients = [self.server.connect_loopback() for _ in range(sessions)]
        self.models = []
        self.callers = []
        for s, client in enumerate(self.clients):
            model = KeyModel(
                iter(range(s, key_space, sessions)),
                lambda k: (k // sessions) % 2 == 0,
            )
            stream = OpStream(
                random.Random(seed * 7919 + s),
                model,
                self.MIX,
                key_space,
                owns=lambda k, s=s: k % sessions == s,
            )
            self.models.append(model)
            self.callers.append(
                PipelinedCaller(client, stream, self.pipeline_depth)
                if self.pipeline_depth > 1
                else SessionCaller(client, stream)
            )

    def _stop(self) -> bool:
        for client in self.clients:
            client.close()
        return self.server.shutdown(drain=True)

    def finish(self) -> list[str]:
        problems = []
        if not self._stop():
            problems.append("server.shutdown(drain=True) did not drain")
        expected = sorted(k for model in self.models for k in model.present_keys())
        problems += final_state_problems(self.db, expected)
        self.db.close()
        return problems

    def discard(self) -> None:
        self._stop()
        self.db.close()

    def describe(self) -> dict:
        return {
            **super().describe(),
            "server_config": {"workers": self.server_config.workers},
            "sessions": self.SESSIONS,
            "pipeline_depth": self.pipeline_depth,
        }


class RestartWorkload(Workload):
    """Recovery of one crashed image, over and over.

    Set-up builds the image: checkpoint, ``TXNS`` autocommit inserts,
    4 in-flight losers of 50 rows each, the log forced, no page
    flushed, crash.  Its durable parts (log stream, master record,
    disk pages, catalog) are captured, and every cycle loads them into
    a fresh ``Database`` the way point-in-time restore does, so each
    recovery starts from the same bytes and decodes them anew.  A
    cycle runs ``restart()`` on one copy and ``instant_restart()`` on
    another (fetching while the drain runs), and reads every row back
    from both.
    """

    name = "restart"
    TXNS = 2000
    LOSERS = 4
    LOSER_ROWS = 50
    rate = 0.45  # cycles (one slice each)

    why = (
        "recovery analysis/redo/undo and WAL read + codec decode: the write "
        "layers of embedded_write used in the opposite direction"
    )

    def setup(self, seed: int, scale: float, meter: SpeedMeter) -> None:
        rng = random.Random(seed)
        txns = max(2 * self.LOSERS * self.LOSER_ROWS, round(self.TXNS * scale))
        # Committed keys are even and loser keys are a committed key + 1,
        # so the next key of every loser insert is a committed one and
        # the in-flight transactions never wait for each other's locks.
        keys = [2 * k for k in rng.sample(range(2 * txns), txns)]
        self.committed = sorted(keys)
        self.loser_keys = [
            key + 1 for key in rng.sample(self.committed, self.LOSERS * self.LOSER_ROWS)
        ]
        db = new_database(self.config)
        db.checkpoint()
        for key in keys:
            meter.maybe_sample()
            with db.transaction() as txn:
                db.insert(txn, TABLE, row_for(key))
        for n in range(self.LOSERS):
            txn = db.begin()
            for key in self.loser_keys[n :: self.LOSERS]:
                db.insert(txn, TABLE, row_for(key))
        db.log.force()
        db.crash()
        self.image = {
            "stream": db.log.raw_slice(1),
            "master": db.log.master_lsn,
            "pages": db.disk.image_copy(),
            "catalog": catalog_snapshot(db),
        }
        self.rng = rng

    def _crashed_copy(self) -> Database:
        image = self.image
        db = Database(self.config)
        db.log.load_stream(1, image["stream"])
        db.log.write_master(image["master"])
        install_catalog(db, image["catalog"])
        for page_id, raw in image["pages"].items():
            db.disk.restore_page(page_id, raw)
        if image["pages"]:
            db.disk.ensure_allocator_above(max(image["pages"]))
        return db

    def measure(self, ops: int, slice_ops: int, tracer: Tracer | None) -> Measured:
        rec = Recorder()  # one slice per cycle
        around = SpeedMeter()  # the speed while one timed call ran
        restarts: list[float] = []
        first_fetches: list[float] = []
        drains: list[float] = []
        stats: dict[str, int] = {}
        window: dict[str, Totals] = {}
        ondemand_pages = 0
        calls = {
            "restart": lambda db: db.restart(),
            "instant_restart": lambda db: db.instant_restart(redo_workers=1),
            "fetch": self._fetch,
        }
        if tracer is not None:
            calls = {kind: tracer.root(kind, fn) for kind, fn in calls.items()}
            tracer.install()
        try:
            for cycles in range(1, ops + 1):
                # Stop-the-world restart.  The span sums and counters of
                # the budget cover exactly this call.
                db = self._crashed_copy()
                before = db.stats.snapshot()
                spans_before = tracer.totals() if tracer is not None else {}
                around.sample()
                start = perf_counter()
                calls["restart"](db)
                waited = perf_counter() - start
                around.sample()
                restarts.append(waited * around.take())
                rec.busy(waited)
                rec.count()
                for name, totals in (tracer.totals() if tracer is not None else {}).items():
                    window[name] = window.get(name, Totals()) + (totals - spans_before[name])
                for name, value in db.stats.diff(before).items():
                    stats[name] = stats.get(name, 0) + value
                self._read_back(db, rec, calls["fetch"], "restart()")

                # Instant restart: fetch from the moment of the call (the
                # first answer is the time to first fetch) until the
                # background drain is done; no read may be stale.
                db = self._crashed_copy()
                around.sample()
                start = perf_counter()
                report = calls["instant_restart"](db)
                rec.count()
                while len(first_fetches) < cycles or db.recovery_state != "steady":
                    absent = self.rng.random() < 0.1
                    key = self.rng.choice(self.loser_keys if absent else self.committed)
                    row = calls["fetch"](db, key)
                    if len(first_fetches) < cycles:
                        waited = perf_counter() - start
                        around.sample()
                        first_fetches.append(waited * around.take())
                    rec.meter.maybe_sample()
                    rec.count()
                    if row != (None if absent else row_for(key)):
                        rec.fail(f"fetch({key}) while recovering returned {row!r}")
                if not report.governor.wait_drained(60.0):
                    rec.fail("instant restart did not drain")
                drains.append(perf_counter() - start)
                ondemand_pages += report.governor.progress()["pages_recovered_ondemand"]
                self._read_back(db, rec, calls["fetch"], "instant_restart()")
                rec.cut()
        finally:
            if tracer is not None:
                tracer.uninstall()
        rec.close()
        restart = median(restarts)
        return Measured(
            total=rec,
            throughput_ops_s=len(self.committed) / restart,
            stats=stats,
            extras={"restart_s": restart, "ttft_s": median(first_fetches)},
            layer={
                "recovery.log_mb": len(self.image["stream"]) / 1e6,
                "recovery.instant_drain_s": median(drains),
                "recovery.ondemand_pages": ondemand_pages / cycles,
            },
            totals=window if tracer is not None else None,
            trace_ops=cycles,
            problems=list(rec.problems),
        )

    @staticmethod
    def _fetch(db: Database, key: int):
        with db.transaction() as txn:
            return db.fetch(txn, TABLE, INDEX, key)

    def _read_back(self, db: Database, rec: Recorder, fetch: Callable, what: str) -> None:
        """A recovered database must hold exactly the acked committed
        rows and no loser row.  Every key is fetched (these timed
        fetches are the workload's latency samples), then the full scan
        and the index structure are checked."""
        for keys, present in ((self.committed, True), (self.loser_keys, False)):
            for key in keys:
                rec.meter.maybe_sample()
                start = perf_counter()
                row = fetch(db, key)
                rec.add("fetch", perf_counter() - start)
                if row != (row_for(key) if present else None):
                    rec.fail(f"after {what}: fetch({key}) returned {row!r}")
        for problem in final_state_problems(db, self.committed):
            rec.fail(f"after {what}: {problem}")

    def finish(self) -> list[str]:
        return []


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        EmbeddedWorkload(
            "embedded_read",
            "the paper's fetch path (btree traverse, locks, latch, buffer hit); the "
            "WAL does nothing here, so a WAL or codec change must predict no change",
            rate=6700,
            pool_pages=2048,
            key_space=10_000,
            absent_every=10,
            shuffle_preload=False,
            mix=Mix(fetch=0.8, scan=0.2, scan_len=10),
        ),
        EmbeddedWorkload(
            "embedded_write",
            "WAL append, record encode, B-tree SMOs and heap do most of the work, "
            "with the CLR/undo path; same locks/latches as embedded_read used for X",
            rate=3400,
            pool_pages=2048,
            key_space=16_000,
            absent_every=2,
            shuffle_preload=True,
            mix=Mix(insert=0.5, delete=0.5, rollback_every=20),
        ),
        EmbeddedWorkload(
            "embedded_coldcache",
            "data 8x larger than the buffer pool: buffer miss/evict, disk and page "
            "to_bytes/from_bytes dominate, which the in-cache workloads never touch",
            rate=1700,
            pool_pages=24,
            key_space=8_000,
            absent_every=4,
            shuffle_preload=False,
            mix=Mix(fetch=0.5, scan=0.2, insert=0.15, delete=0.15, scan_len=20),
        ),
        ServerWorkload(
            "server_pipelined",
            "throughput through client, v2 frames, session batch, executor, engine "
            "and one coalesced force per batch (2 sessions, pipeline depth 16)",
            rate=4000,
            pipeline_depth=16,
        ),
        ServerWorkload(
            "server_strict",
            "per-request latency: thread hand-offs, admission, frame I/O, group-commit "
            "park; the same server layer as server_pipelined with no batching",
            rate=1500,
            pipeline_depth=1,
        ),
        RestartWorkload(),
    )
}
