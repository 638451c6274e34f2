"""Closed-loop load generator for the database server.

N workers, each with its own client session, issue a seeded mixed
workload (fetch/insert/delete/scan) and wait for every response before
sending the next request — a *closed* loop, so offered load adapts to
what the server sustains instead of queueing unboundedly.  The run
reports throughput, a latency histogram with percentiles, and the
error counts by kind; the e15 benchmark and the CI smoke job consume
the report (and its JSON form) directly.

The generator talks to any ``connect`` callable returning a
:class:`~repro.server.client.DatabaseClient` — a TCP ``connect`` for a
real server, ``server.connect_loopback`` for in-process runs.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.common.errors import (
    DeadlockError,
    KeyNotFoundError,
    LockTimeoutError,
    ServerError,
    UniqueKeyViolationError,
)
from repro.server.client import DatabaseClient


@dataclass(frozen=True)
class LoadgenSpec:
    """Parameters of one load-generation run."""

    workers: int = 8
    requests_per_worker: int = 100
    duration_seconds: float | None = None
    """If set, run for this long instead of a fixed request count."""
    key_space: int = 2000
    fetch_fraction: float = 0.5
    insert_fraction: float = 0.25
    delete_fraction: float = 0.15
    scan_fraction: float = 0.10
    scan_length: int = 10
    ops_per_txn: int = 1
    """1 = every request autocommits; >1 = explicit begin/ops/commit."""
    table: str = "t"
    index: str = "by_id"
    key_column: str = "id"
    value_size: int = 16
    seed: int = 42
    skew: float = 0.0
    """Zipfian hot-key skew.  0 = uniform key choice; > 0 is the
    Zipfian theta (YCSB uses 0.99): key ranks are drawn ~ 1/rank^theta,
    so a handful of hot keys absorb most of the traffic.  Under a
    hash-partitioned cluster that concentrates load on the shards
    owning the hot keys — the scenario the cluster benchmarks use to
    show router behavior beyond uniform traffic."""
    read_fraction: float | None = None
    """Reshape the op mix to this overall read share: reads split
    80/20 fetch/scan, writes 62.5/37.5 insert/delete (the default
    mix's internal ratios).  Composes with ``skew`` — hot-key reads
    against hot-key writes is exactly the lock-contention scenario
    snapshot reads dissolve."""
    snapshot_reads: bool = False
    """Issue fetches and scans at ``isolation="snapshot"`` (zero record
    and next-key locks) instead of the default locking read path."""
    pipeline_depth: int = 1
    """1 = strict request/response per op; > 1 = queue this many
    autocommit ops per pipeline flush (one batched write, server-side
    batch execution).  Applies when ``ops_per_txn == 1``; explicit
    transactions keep the strict loop."""

    def __post_init__(self) -> None:
        if self.read_fraction is not None:
            if not 0.0 <= self.read_fraction <= 1.0:
                raise ValueError("read_fraction must be within [0, 1]")
            rf = self.read_fraction
            object.__setattr__(self, "fetch_fraction", rf * 0.8)
            object.__setattr__(self, "scan_fraction", rf * 0.2)
            object.__setattr__(self, "insert_fraction", (1 - rf) * 0.625)
            object.__setattr__(self, "delete_fraction", (1 - rf) * 0.375)
        total = (
            self.fetch_fraction
            + self.insert_fraction
            + self.delete_fraction
            + self.scan_fraction
        )
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"operation fractions sum to {total}, not 1.0")
        if self.workers < 1 or self.ops_per_txn < 1:
            raise ValueError("workers and ops_per_txn must be >= 1")
        if self.pipeline_depth < 1:
            raise ValueError("pipeline_depth must be >= 1")
        if self.skew < 0:
            raise ValueError("skew must be >= 0")


class ZipfianGenerator:
    """Zipfian ranks over ``[0, n)`` (Gray et al., the YCSB generator).

    Rank ``k`` is drawn with probability proportional to
    ``1 / (k+1)^theta``; the popular items are the *low* ranks, so
    callers scatter ranks over the key space (see
    :meth:`_Worker._next_key`) to avoid hot keys being adjacent."""

    def __init__(self, n: int, theta: float, rng: random.Random) -> None:
        if not 0 < theta < 1:
            # theta >= 1 diverges as n grows; YCSB caps at 0.99 too.
            theta = min(max(theta, 1e-6), 0.99)
        self.n = n
        self.theta = theta
        self.rng = rng
        self.zetan = sum(1.0 / (i + 1) ** theta for i in range(n))
        self.zeta2 = 1.0 + 2.0 ** -theta
        self.alpha = 1.0 / (1.0 - theta)
        self.eta = (1 - (2.0 / n) ** (1 - theta)) / (1 - self.zeta2 / self.zetan)

    def next_rank(self) -> int:
        u = self.rng.random()
        uz = u * self.zetan
        if uz < 1.0:
            return 0
        if uz < self.zeta2:
            return 1
        return int(self.n * (self.eta * u - self.eta + 1) ** self.alpha)


class LatencyRecorder:
    """Per-request latencies: percentiles plus a log-scale histogram."""

    #: Bucket upper bounds in milliseconds (last bucket is open-ended).
    BOUNDS_MS = (0.25, 0.5, 1, 2, 4, 8, 16, 32, 64, 128, 256, 1000)

    def __init__(self) -> None:
        self._samples: list[float] = []

    def add(self, seconds: float) -> None:
        self._samples.append(seconds)

    def merge(self, other: "LatencyRecorder") -> None:
        self._samples.extend(other._samples)

    @property
    def count(self) -> int:
        return len(self._samples)

    def percentile(self, fraction: float) -> float:
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = min(int(fraction * len(ordered)), len(ordered) - 1)
        return ordered[rank]

    def summary(self) -> dict[str, float]:
        if not self._samples:
            return {"count": 0}
        return {
            "count": len(self._samples),
            "mean_ms": 1e3 * sum(self._samples) / len(self._samples),
            "p50_ms": 1e3 * self.percentile(0.50),
            "p90_ms": 1e3 * self.percentile(0.90),
            "p99_ms": 1e3 * self.percentile(0.99),
            "max_ms": 1e3 * max(self._samples),
        }

    def histogram(self) -> list[tuple[str, int]]:
        counts = [0] * (len(self.BOUNDS_MS) + 1)
        for sample in self._samples:
            ms = sample * 1e3
            for i, bound in enumerate(self.BOUNDS_MS):
                if ms <= bound:
                    counts[i] += 1
                    break
            else:
                counts[-1] += 1
        labels = [f"<={bound}ms" for bound in self.BOUNDS_MS] + [
            f">{self.BOUNDS_MS[-1]}ms"
        ]
        return [(label, count) for label, count in zip(labels, counts) if count]

    def format_histogram(self, width: int = 40) -> str:
        rows = self.histogram()
        if not rows:
            return "(no samples)"
        peak = max(count for _, count in rows)
        return "\n".join(
            f"{label:>10} {count:>7} {'#' * max(1, count * width // peak)}"
            for label, count in rows
        )


@dataclass
class LoadgenReport:
    """Outcome of one run (aggregated over all workers)."""

    spec: LoadgenSpec
    elapsed_seconds: float = 0.0
    requests: int = 0
    commits: int = 0
    statement_misses: int = 0
    """Unique-key violations / missing keys — workload noise, not errors."""
    txn_aborts: int = 0
    """Deadlock or lock-timeout victims (rolled back and counted)."""
    errors: dict[str, int] = field(default_factory=dict)
    """Everything else, by error kind — must be empty in a healthy run."""
    op_counts: dict[str, int] = field(default_factory=dict)
    latency: LatencyRecorder = field(default_factory=LatencyRecorder)

    @property
    def throughput_rps(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.requests / self.elapsed_seconds

    def errors_total(self) -> int:
        return sum(self.errors.values())

    def to_dict(self) -> dict:
        """JSON-ready form (the benchmark artifact)."""
        return {
            "workers": self.spec.workers,
            "ops_per_txn": self.spec.ops_per_txn,
            "pipeline_depth": self.spec.pipeline_depth,
            "elapsed_seconds": round(self.elapsed_seconds, 4),
            "requests": self.requests,
            "throughput_rps": round(self.throughput_rps, 1),
            "commits": self.commits,
            "statement_misses": self.statement_misses,
            "txn_aborts": self.txn_aborts,
            "errors": dict(self.errors),
            "op_counts": dict(self.op_counts),
            "latency": {
                key: round(value, 3) for key, value in self.latency.summary().items()
            },
        }


class _Worker:
    def __init__(
        self,
        worker_id: int,
        connect: Callable[[], DatabaseClient],
        spec: LoadgenSpec,
        stop_at: float | None,
    ) -> None:
        self.worker_id = worker_id
        self.connect = connect
        self.spec = spec
        self.stop_at = stop_at
        self.report = LoadgenReport(spec)
        self.rng = random.Random(spec.seed + 7919 * worker_id)
        self.zipf = (
            ZipfianGenerator(spec.key_space, spec.skew, self.rng)
            if spec.skew > 0
            else None
        )

    def _next_key(self) -> int:
        spec = self.spec
        if self.zipf is None:
            return self.rng.randrange(spec.key_space)
        # Scatter ranks over the key space (FNV-style mix) so the hot
        # keys aren't the consecutive low integers — consecutive keys
        # share B-tree leaves (and often a shard), which would conflate
        # key-popularity skew with key-adjacency effects.
        rank = self.zipf.next_rank()
        return (rank * 2654435761) % spec.key_space

    def _next_op(self) -> tuple[str, int]:
        spec = self.spec
        roll = self.rng.random()
        key = self._next_key()
        if roll < spec.fetch_fraction:
            return "fetch", key
        if roll < spec.fetch_fraction + spec.insert_fraction:
            return "insert", key
        if roll < spec.fetch_fraction + spec.insert_fraction + spec.delete_fraction:
            return "delete", key
        return "scan", key

    def _issue(self, client: DatabaseClient, kind: str, key: int) -> None:
        spec = self.spec
        report = self.report
        start = time.perf_counter()
        isolation = "snapshot" if spec.snapshot_reads else "rr"
        try:
            if kind == "fetch":
                client.fetch(spec.table, spec.index, key, isolation=isolation)
            elif kind == "insert":
                client.insert(
                    spec.table,
                    {spec.key_column: key, "pad": "v" * spec.value_size},
                )
            elif kind == "delete":
                client.delete_by_key(spec.table, spec.index, key)
            else:
                client.scan(
                    spec.table,
                    spec.index,
                    low=key,
                    high=key + spec.scan_length,
                    isolation=isolation,
                )
        except (UniqueKeyViolationError, KeyNotFoundError):
            report.statement_misses += 1
        finally:
            report.latency.add(time.perf_counter() - start)
            report.requests += 1
            report.op_counts[kind] = report.op_counts.get(kind, 0) + 1

    def _issue_pipelined(self, client: DatabaseClient, ops: list) -> None:
        """Queue ``ops`` on one pipeline, flush once, settle futures.

        Every op in the flush shares the same wall-clock window, so each
        records the full flush latency — the time its caller actually
        waited."""
        spec = self.spec
        report = self.report
        isolation = "snapshot" if spec.snapshot_reads else "rr"
        start = time.perf_counter()
        pipe = client.pipeline(depth=len(ops) + 1)
        futures = []
        for kind, key in ops:
            if kind == "fetch":
                future = pipe.fetch(spec.table, spec.index, key, isolation=isolation)
            elif kind == "insert":
                future = pipe.insert(
                    spec.table, {spec.key_column: key, "pad": "v" * spec.value_size}
                )
            elif kind == "delete":
                future = pipe.delete_by_key(spec.table, spec.index, key)
            else:
                future = pipe.request(
                    "scan",
                    table=spec.table,
                    index=spec.index,
                    low=key,
                    high=key + spec.scan_length,
                    isolation=isolation,
                )
            futures.append((kind, future))
        pipe.flush()
        elapsed = time.perf_counter() - start
        for kind, future in futures:
            error = future.error
            if error is None:
                pass
            elif isinstance(error, (UniqueKeyViolationError, KeyNotFoundError)):
                report.statement_misses += 1
            elif isinstance(error, (DeadlockError, LockTimeoutError)):
                report.txn_aborts += 1
            else:
                name = getattr(error, "kind", None) or type(error).__name__
                report.errors[name] = report.errors.get(name, 0) + 1
            report.latency.add(elapsed)
            report.requests += 1
            report.op_counts[kind] = report.op_counts.get(kind, 0) + 1

    def _done(self, issued: int) -> bool:
        if self.stop_at is not None:
            return time.perf_counter() >= self.stop_at
        return issued >= self.spec.requests_per_worker

    def run(self) -> None:
        spec = self.spec
        report = self.report
        try:
            client = self.connect()
        except Exception as exc:  # noqa: BLE001,RPR005 - report, don't die silently
            report.errors["connect:" + type(exc).__name__] = 1
            return
        issued = 0
        pipelined = spec.pipeline_depth > 1 and spec.ops_per_txn == 1
        try:
            while not self._done(issued):
                if pipelined:
                    ops = [self._next_op() for _ in range(spec.pipeline_depth)]
                    try:
                        self._issue_pipelined(client, ops)
                    except ServerError as exc:
                        kind = getattr(exc, "kind", type(exc).__name__)
                        report.errors[kind] = report.errors.get(kind, 0) + 1
                        if client.closed:
                            return  # connection gone; this worker is done
                    issued += len(ops)
                    continue
                batch = [self._next_op() for _ in range(spec.ops_per_txn)]
                try:
                    if spec.ops_per_txn == 1:
                        self._issue(client, *batch[0])
                    else:
                        client.begin()
                        for kind, key in batch:
                            self._issue(client, kind, key)
                        client.commit()
                        report.commits += 1
                except (DeadlockError, LockTimeoutError):
                    report.txn_aborts += 1
                    self._try_rollback(client)
                except ServerError as exc:
                    kind = getattr(exc, "kind", type(exc).__name__)
                    report.errors[kind] = report.errors.get(kind, 0) + 1
                    if client.closed:
                        return  # connection gone; this worker is done
                    self._try_rollback(client)
                issued += len(batch)
            if spec.ops_per_txn == 1:
                # Autocommit: every successful request committed its own
                # transaction (statement misses still commit — they roll
                # back only the statement).
                report.commits = (
                    report.requests - report.errors_total() - report.txn_aborts
                )
        finally:
            try:
                client.close()
            except Exception:  # noqa: BLE001,RPR005 - best-effort rollback after harness stop
                pass

    def _try_rollback(self, client: DatabaseClient) -> None:
        try:
            client.rollback()
        except Exception:  # noqa: BLE001,RPR005 - nothing was open / already aborted
            pass


def run_loadgen(
    connect: Callable[[], DatabaseClient], spec: LoadgenSpec
) -> LoadgenReport:
    """Run the closed-loop workload; returns the merged report."""
    stop_at = (
        time.perf_counter() + spec.duration_seconds
        if spec.duration_seconds is not None
        else None
    )
    workers = [_Worker(i, connect, spec, stop_at) for i in range(spec.workers)]
    threads = [
        threading.Thread(target=worker.run, name=f"loadgen-{worker.worker_id}")
        for worker in workers
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start

    merged = LoadgenReport(spec, elapsed_seconds=elapsed)
    for worker in workers:
        report = worker.report
        merged.requests += report.requests
        merged.commits += report.commits
        merged.statement_misses += report.statement_misses
        merged.txn_aborts += report.txn_aborts
        for kind, count in report.errors.items():
            merged.errors[kind] = merged.errors.get(kind, 0) + count
        for kind, count in report.op_counts.items():
            merged.op_counts[kind] = merged.op_counts.get(kind, 0) + count
        merged.latency.merge(report.latency)
    return merged


def main(argv: list[str] | None = None) -> int:
    """CLI: drive a running server over TCP.

    ``python -m repro.harness.loadgen --port 5432 --skew 0.99`` sends a
    Zipfian hot-key workload; omit ``--skew`` for uniform keys."""
    import argparse
    import json

    parser = argparse.ArgumentParser(description="closed-loop load generator")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--workers", type=int, default=8)
    parser.add_argument("--requests", type=int, default=100, dest="requests")
    parser.add_argument("--key-space", type=int, default=2000)
    parser.add_argument("--ops-per-txn", type=int, default=1)
    parser.add_argument(
        "--skew",
        type=float,
        default=0.0,
        help="Zipfian theta (0 = uniform, YCSB hot-key default is 0.99)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--read-fraction",
        type=float,
        default=None,
        help="overall read share of the mix (reads split 80/20 "
        "fetch/scan); composes with --skew",
    )
    parser.add_argument(
        "--snapshot-reads",
        action="store_true",
        help='issue reads at isolation="snapshot" (zero locks)',
    )
    parser.add_argument(
        "--pipeline-depth",
        type=int,
        default=1,
        help="autocommit ops queued per pipeline flush (1 = no pipelining)",
    )
    args = parser.parse_args(argv)

    spec = LoadgenSpec(
        workers=args.workers,
        requests_per_worker=args.requests,
        key_space=args.key_space,
        ops_per_txn=args.ops_per_txn,
        skew=args.skew,
        seed=args.seed,
        read_fraction=args.read_fraction,
        snapshot_reads=args.snapshot_reads,
        pipeline_depth=args.pipeline_depth,
    )
    report = run_loadgen(lambda: DatabaseClient.connect(args.host, args.port), spec)
    print(json.dumps(report.to_dict(), indent=2))
    return 0 if not report.errors else 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
