"""Every metric the benchmark reports: name, unit, direction, bound —
and how each is computed from a measured phase.

``END_TO_END`` is the contract with the driver (``BENCHMARK.json``
repeats it): every workload reports every one of them and none is ever
0.  ``DETAIL`` names the values of ISSUE 13's end-to-end list that
apply to some workloads only; the same untraced run yields them, they
are printed and stored in the result files, and ``python -m bench
compare`` holds them to their bounds like the contract metrics — but
the driver does not see them.  ``PER_LAYER`` come from the separate
traced run.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median

from repro.harness.loadgen import LatencyRecorder

from bench.trace import BENCH, LAYERS, Totals, Tracer
from bench.workloads import USER_BYTES_PER_ROW, Measured, Slice


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None
    """How much worse than the baseline's median it may get: a share of
    that median, or for ``absolute`` metrics a difference."""
    note: str = ""
    absolute: bool = False

    @property
    def timed(self) -> bool:
        """Read off a clock, so it varies between runs of one seed."""
        return self.unit in ("s", "ms", "1/s")


#: ISSUE 13's bound for every timing and for memory.
BOUND = 0.10

#: The contract metrics carry the bound the driver holds later changes
#: to.  Its own rule is that ten runs on ten seeds must spread (quartile
#: distance / median) by less than a third of the bound, which on this
#: sandbox the issue's 10% meets for memory only: throughput and the
#: median spread 2-5% (8% in a set the host disturbed), the 99th
#: percentile 2-20%, the short set-ups 2-7% (bench/README.md has the
#: sets).  Set-up time gets the largest bound, as the driver asks.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25, "median time of one set-up of the workload"),
    Metric(
        "throughput_ops_s",
        "1/s",
        "higher",
        0.15,
        "completed operations / the callers' busy time, median slice, summed over "
        "callers; restart: committed transactions recovered per second of restart()",
    ),
    Metric("op_p50_ms", "ms", "lower", 0.15, "median latency over the mix, median slice"),
    Metric("op_p99_ms", "ms", "lower", 0.25, "99th percentile over the mix, median slice"),
    Metric("peak_rss_mb", "MB", "lower", BOUND, "ru_maxrss of the workload's process"),
)

_OP_KINDS = ("fetch", "scan", "insert", "delete")

DETAIL = (
    *(
        Metric(f"{kind}_{p}_ms", "ms", "lower", BOUND, note)
        for kind in _OP_KINDS
        for p, note in (
            ("p50", f"median {kind} latency, median slice"),
            ("p99", f"99th percentile of every {kind} of the run"),
        )
    ),
    Metric("restart_s", "s", "lower", BOUND, "median time of restart() on the crashed image"),
    Metric(
        "ttft_s",
        "s",
        "lower",
        BOUND,
        "median time from the instant_restart() call to the first committed fetch",
    ),
    Metric(
        "log_bytes_per_user_byte",
        "ratio",
        "lower",
        0.005,
        "WAL bytes appended / (24 x successful inserts); single-thread workloads, "
        "where it repeats exactly for one seed and operation count",
    ),
    Metric(
        "failed_share", "ratio", "lower", 0.001, "failed / attempted operations", absolute=True
    ),
)


def _layer_metrics() -> tuple[Metric, ...]:
    generic = tuple(
        Metric(f"{layer}.{suffix}", unit, "lower")
        for layer in LAYERS
        for suffix, unit in (
            ("calls_per_op", "count"),
            ("self_us_per_op", "us"),
            ("self_share", "ratio"),
        )
    )
    specific = (
        Metric("wal.records_per_commit", "count", "lower"),
        Metric("wal.bytes_per_record", "bytes", "lower"),
        Metric("wal.sync_forces_per_commit", "count", "lower"),
        Metric("wal.group_commit_batch_mean", "count", "higher"),
        Metric("wal.append_us", "us", "lower"),
        Metric("wal.force_wait_us_per_commit", "us", "lower"),
        Metric("codec.encode_us_per_kb", "us", "lower"),
        Metric("codec.decode_us_per_kb", "us", "lower"),
        Metric("codec.bytes_encoded_per_op", "bytes", "lower"),
        Metric("codec.bytes_decoded_per_op", "bytes", "lower"),
        Metric("locks.requests_per_op", "count", "lower"),
        Metric("locks.request_p50_us", "us", "lower"),
        Metric("locks.request_p99_us", "us", "lower"),
        Metric("locks.waits_per_kop", "count", "lower"),
        Metric("locks.deadlocks_per_kop", "count", "lower"),
        Metric("locks.timeouts_per_kop", "count", "lower"),
        Metric("latch.acquisitions_per_op", "count", "lower"),
        Metric("latch.acquire_p50_us", "us", "lower"),
        Metric("latch.waits_per_kop", "count", "lower"),
        Metric("latch.conditional_misses_per_kop", "count", "lower"),
        Metric("buffer.fixes_per_op", "count", "lower"),
        Metric("buffer.hit_ratio", "ratio", "higher"),
        Metric("buffer.fix_hit_us", "us", "lower"),
        Metric("buffer.fix_miss_us", "us", "lower"),
        Metric("buffer.evictions_per_op", "count", "lower"),
        Metric("buffer.pages_written_per_op", "count", "lower"),
        Metric("disk.reads_per_op", "count", "lower"),
        Metric("disk.writes_per_op", "count", "lower"),
        Metric("btree.traversals_per_op", "count", "lower"),
        Metric("btree.pages_visited_per_traversal", "count", "lower"),
        Metric("btree.restarts_per_kop", "count", "lower"),
        Metric("btree.splits_per_kinsert", "count", "lower"),
        Metric("btree.page_deletes_per_kdelete", "count", "lower"),
        Metric("btree.lock_dances_per_kop", "count", "lower"),
        Metric("data.statement_miss_share", "ratio", "lower"),
        Metric("data.heap_pages_formatted", "count", "lower"),
        Metric("data.rows_per_scan", "count", "higher"),
        Metric("txn.begin_us", "us", "lower"),
        Metric("txn.commit_us", "us", "lower"),
        Metric("txn.readonly_commit_share", "ratio", "higher"),
        Metric("txn.deferred_commit_share", "ratio", "higher"),
        Metric("txn.rollbacks_per_kop", "count", "lower"),
        Metric("txn.records_undone_per_rollback", "count", "lower"),
        Metric("server.requests_per_batch", "count", "higher"),
        Metric("server.batch_peak", "count", "higher"),
        Metric("server.queue_peak", "count", "lower"),
        Metric("server.rejected_overload", "count", "lower"),
        Metric("server.request_timeouts", "count", "lower"),
        Metric("server.execute_us_per_req", "us", "lower"),
        Metric("server.outside_execute_us_per_req", "us", "lower"),
        Metric("client.roundtrips_per_op", "count", "lower"),
        Metric("recovery.log_mb", "MB", "lower"),
        Metric("recovery.analysis_s", "s", "lower"),
        Metric("recovery.redo_s", "s", "lower"),
        Metric("recovery.undo_s", "s", "lower"),
        Metric("recovery.checkpoint_s", "s", "lower"),
        Metric("recovery.records_redone", "count", "lower"),
        Metric("recovery.redo_pages_accessed", "count", "lower"),
        Metric("recovery.records_undone", "count", "lower"),
        Metric("recovery.instant_drain_s", "s", "lower"),
        Metric("recovery.ondemand_pages", "count", "lower"),
        Metric("stats.incr_calls_per_op", "count", "lower"),
        Metric("trace.overhead_ratio", "ratio", "lower"),
        Metric("trace.unattributed_share", "ratio", "lower"),
        Metric("trace.spans_per_op", "count", "lower"),
    )
    return generic + specific


PER_LAYER = _layer_metrics()

#: Written before measuring: which end-to-end metric each group of
#: layer metrics should move, the workload where that layer does the
#: work, and the workloads that bypass it (predict no change).
INTERACTIONS = (
    (
        "wal.*, codec.encode_*",
        "throughput_ops_s, op_p50_ms (insert/delete_p50_ms), log_bytes_per_user_byte",
        "embedded_write",
        "embedded_read",
    ),
    ("codec.decode_*, recovery.*", "throughput_ops_s (restart_s), ttft_s", "restart", "embedded_read"),
    (
        "locks.*, latch.*, stats.incr_calls_per_op",
        "op_p50_ms (fetch/scan_p50_ms), throughput_ops_s",
        "embedded_read (least engine work per operation, so fixed per-op costs weigh most)",
        "restart (redo takes no locks)",
    ),
    (
        "btree.pages_visited_per_traversal, btree.restarts_per_kop",
        "op_p50_ms (fetch_p50_ms)",
        "embedded_read",
        "-",
    ),
    (
        "btree.splits_per_kinsert, data.*",
        "op_p99_ms, insert_p99_ms (splits are the tail), scan_p50_ms",
        "embedded_write, embedded_read",
        "-",
    ),
    (
        "buffer.*, disk.*",
        "throughput_ops_s, op_p90_ms (op_p99_ms)",
        "embedded_coldcache",
        "embedded_read, embedded_write (buffer.hit_ratio = 1)",
    ),
    ("txn.commit_us, txn.readonly_commit_share", "throughput_ops_s", "every workload", "-"),
    (
        "server.*, client.*, wal.sync_forces_per_commit, txn.deferred_commit_share",
        "throughput_ops_s on server_pipelined; op_p50_ms on server_strict",
        "server_pipelined, server_strict",
        "every embedded_* workload",
    ),
)


# -- computing ---------------------------------------------------------------------


def _slice_percentile_ms(slices: list[Slice], kinds: list[str], fraction: float) -> float:
    """The median, over the slices, of one percentile of the slice's
    samples of ``kinds``."""
    values = []
    for s in slices:
        pooled = LatencyRecorder()
        for kind in kinds:
            if kind in s.latency:
                pooled.merge(s.latency[kind])
        if pooled.count:
            values.append(pooled.percentile(fraction))
    return 1e3 * median(values)


def end_to_end(measured: Measured, setup_s: float, peak_rss_mb: float) -> dict[str, float]:
    """The contract metrics of an untraced phase."""
    total = measured.total
    slices, kinds = total.whole_slices(), total.kinds()
    return {
        "setup_s": setup_s,
        "throughput_ops_s": measured.throughput_ops_s,
        "op_p50_ms": _slice_percentile_ms(slices, kinds, 0.50),
        "op_p99_ms": _slice_percentile_ms(slices, kinds, 0.99),
        "peak_rss_mb": peak_rss_mb,
    }


def detail(measured: Measured) -> tuple[dict[str, float], dict[str, int]]:
    """The ``DETAIL`` values that apply to this phase, and the sample
    count behind each timing.  One slice holds too few operations of
    one type for a 99th percentile, so that one is of the whole run."""
    total = measured.total
    values: dict[str, float] = {}
    samples: dict[str, int] = {}
    for kind in total.kinds():
        if kind not in _OP_KINDS:
            continue
        whole = total.latency(kind)
        values[f"{kind}_p50_ms"] = _slice_percentile_ms(total.whole_slices(), [kind], 0.50)
        values[f"{kind}_p99_ms"] = 1e3 * whole.percentile(0.99)
        samples[f"{kind}_p50_ms"] = samples[f"{kind}_p99_ms"] = whole.count
    values.update(measured.extras)
    if total.inserts and measured.log_bytes and measured.callers == 1:
        values["log_bytes_per_user_byte"] = measured.log_bytes / (
            USER_BYTES_PER_ROW * total.inserts
        )
    values["failed_share"] = total.failed / total.ops
    return values, samples


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _percentile_us(durations, fraction: float) -> float:
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return ordered[min(int(fraction * len(ordered)), len(ordered) - 1)] / 1e3


#: Layer self times + unattributed must meet the traced wall this closely.
BUDGET_TOLERANCE = 0.01


def per_layer(
    traced: Measured, untraced: Measured, tracer: Tracer
) -> tuple[dict[str, float], list[str]]:
    """Every ``PER_LAYER`` value from a traced phase (and the untraced
    phase of the same run, for the overhead ratio), and what is wrong
    with the budget they make."""
    totals = traced.totals or {}
    lock_request_ns = tracer.durations("LockManager.request")
    latch_acquire_ns = tracer.durations("Latch.acquire")
    ops = traced.trace_ops or 1
    stats = traced.stats
    rec = traced.total

    def stat(name: str) -> int:
        return stats.get(name, 0)

    def fn(name: str) -> Totals:
        return totals.get(name, Totals())

    by_layer = {layer: Totals() for layer in (*LAYERS, BENCH)}
    for name, t in totals.items():
        by_layer[tracer.layer_of(name)] += t
    self_ns = {layer: t.self_ns for layer, t in by_layer.items()}
    # A caller waits while other threads work for it, and that wait is
    # in the waiter's self time.  Take out the part other threads'
    # spans cover, so that the layers add up to the callers' wall: a
    # worker's Session.execute* runs inside DatabaseServer.submit*'s
    # wait (server), and every other span with no parent on its thread
    # runs on a session thread inside the client's wait for the reply.
    # What stays with `client` is its own work, the wire, and waiting
    # that no span covers; embedded workloads have no such spans.
    execute_ns = fn("Session.execute").root_ns + fn("Session.execute_batch").root_ns
    roots_ns = sum(t.root_ns for t in totals.values())
    self_ns["server"] -= execute_ns
    self_ns["client"] -= roots_ns - by_layer[BENCH].root_ns - execute_ns
    # Unattributed is the self time of the benchmark's own per-operation
    # root spans: the benchmark's frames and engine code outside every
    # wrapped function.  The wall is the workload's own clock, read
    # outside those spans, so the two need not agree: a span clock that
    # drifts from it, or waiting taken out of a layer that never held
    # it, shows as a budget that misses the wall or a layer below zero.
    all_self = traced.total.wall_s * 1e9
    problems = []
    accounted = sum(self_ns.values())
    if abs(accounted - all_self) > BUDGET_TOLERANCE * all_self:
        problems.append(
            f"layer self times + unattributed are {accounted / all_self:.2%} of the traced "
            f"wall (must be within {BUDGET_TOLERANCE:.0%})"
        )
    for layer in LAYERS:
        if self_ns[layer] < -BUDGET_TOLERANCE * all_self:
            problems.append(f"{layer}: self time {self_ns[layer] / all_self:.2%} of the wall")
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls_per_op"] = by_layer[layer].calls / ops
        out[f"{layer}.self_us_per_op"] = self_ns[layer] / 1e3 / ops
        out[f"{layer}.self_share"] = _ratio(self_ns[layer], all_self)

    commits = stat("txn.committed")
    records = stat("log.records_written")
    force = fn("LogManager.force") + fn("LogManager.force_for_commit")
    out["wal.records_per_commit"] = _ratio(records, commits)
    out["wal.bytes_per_record"] = _ratio(traced.log_bytes, records)
    out["wal.sync_forces_per_commit"] = _ratio(stat("log.sync_forces"), commits)
    out["wal.group_commit_batch_mean"] = _ratio(
        stat("log.group_commit_requests"), stat("log.group_commit_batches")
    )
    append = fn("LogManager.append")
    out["wal.append_us"] = _ratio(append.total_ns / 1e3, append.calls)
    out["wal.force_wait_us_per_commit"] = _ratio(force.self_ns / 1e3, commits)

    encode, decode = fn("encode_value"), fn("decode_value")
    out["codec.encode_us_per_kb"] = _ratio(encode.total_ns / 1e3, encode.payload_bytes / 1024)
    out["codec.decode_us_per_kb"] = _ratio(decode.total_ns / 1e3, decode.payload_bytes / 1024)
    out["codec.bytes_encoded_per_op"] = encode.payload_bytes / ops
    out["codec.bytes_decoded_per_op"] = decode.payload_bytes / ops

    out["locks.requests_per_op"] = fn("LockManager.request").calls / ops
    out["locks.request_p50_us"] = _percentile_us(lock_request_ns, 0.50)
    out["locks.request_p99_us"] = _percentile_us(lock_request_ns, 0.99)
    out["locks.waits_per_kop"] = 1e3 * stat("lock.waits") / ops
    out["locks.deadlocks_per_kop"] = 1e3 * stat("lock.deadlocks") / ops
    out["locks.timeouts_per_kop"] = 1e3 * stat("lock.timeouts") / ops

    out["latch.acquisitions_per_op"] = stat("latch.acquisitions") / ops
    out["latch.acquire_p50_us"] = _percentile_us(latch_acquire_ns, 0.50)
    out["latch.waits_per_kop"] = 1e3 * stat("latch.waits") / ops
    out["latch.conditional_misses_per_kop"] = 1e3 * stat("latch.conditional_misses") / ops

    hits, misses = stat("buffer.hits"), stat("buffer.misses")
    fix_hit, fix_miss = fn("BufferPool.fix[hit]"), fn("BufferPool.fix[miss]")
    out["buffer.fixes_per_op"] = (hits + misses) / ops
    out["buffer.hit_ratio"] = _ratio(hits, hits + misses)
    out["buffer.fix_hit_us"] = _ratio(fix_hit.total_ns / 1e3, fix_hit.calls)
    out["buffer.fix_miss_us"] = _ratio(fix_miss.total_ns / 1e3, fix_miss.calls)
    out["buffer.evictions_per_op"] = stat("buffer.evictions") / ops
    out["buffer.pages_written_per_op"] = stat("buffer.pages_written") / ops
    out["disk.reads_per_op"] = stat("disk.reads") / ops
    out["disk.writes_per_op"] = stat("disk.writes") / ops

    traversals = stat("btree.traversals")
    out["btree.traversals_per_op"] = traversals / ops
    out["btree.pages_visited_per_traversal"] = _ratio(stat("btree.pages_visited"), traversals)
    out["btree.restarts_per_kop"] = (
        1e3 * (stat("btree.traversal_restarts") + stat("btree.stale_leaf_restarts")) / ops
    )
    out["btree.splits_per_kinsert"] = 1e3 * _ratio(
        stat("btree.page_splits"), stat("btree.op.insert")
    )
    out["btree.page_deletes_per_kdelete"] = 1e3 * _ratio(
        stat("btree.page_deletes"), stat("btree.op.delete")
    )
    out["btree.lock_dances_per_kop"] = 1e3 * stat("btree.lock_dances") / ops

    out["data.statement_miss_share"] = _ratio(rec.misses, rec.ops)
    out["data.heap_pages_formatted"] = stat("heap.pages_formatted")
    out["data.rows_per_scan"] = _ratio(rec.rows_scanned, rec.scans)

    begin = fn("TransactionManager.begin")
    commit = fn("TransactionManager.commit") + fn("TransactionManager.commit_deferred")
    finish = fn("TransactionManager.finish_deferred")
    out["txn.begin_us"] = _ratio(begin.total_ns / 1e3, begin.calls)
    out["txn.commit_us"] = _ratio((commit.total_ns + finish.total_ns) / 1e3, commit.calls)
    out["txn.readonly_commit_share"] = _ratio(stat("txn.readonly_commits"), commits)
    out["txn.deferred_commit_share"] = _ratio(stat("txn.deferred_commits"), commits)
    out["txn.rollbacks_per_kop"] = 1e3 * stat("txn.rolled_back") / ops
    out["txn.records_undone_per_rollback"] = _ratio(
        stat("txn.records_undone"), stat("txn.rolled_back")
    )

    requests = stat("server.requests")
    jobs = fn("DatabaseServer.submit").calls + fn("DatabaseServer.submit_batch").calls
    out["server.requests_per_batch"] = _ratio(requests, jobs)
    out["server.batch_peak"] = traced.gauges.get("server.batch_peak", 0)
    out["server.queue_peak"] = traced.gauges.get("server.queue_peak", 0)
    out["server.rejected_overload"] = stat("server.rejected_overload")
    out["server.request_timeouts"] = stat("server.request_timeouts")
    out["server.execute_us_per_req"] = _ratio(execute_ns / 1e3, requests)
    out["server.outside_execute_us_per_req"] = (
        _ratio(traced.total.wall_s * 1e6 - execute_ns / 1e3, requests) if requests else 0.0
    )
    out["client.roundtrips_per_op"] = (
        fn("DatabaseClient.request").calls + fn("Pipeline.flush").calls
    ) / ops

    # Recovery times are per restart() call (ops = cycles there).
    for name, span in (
        ("analysis_s", "run_analysis"),
        ("redo_s", "run_redo"),
        ("undo_s", "run_undo"),
        ("checkpoint_s", "take_checkpoint"),
    ):
        out[f"recovery.{name}"] = fn(span).total_ns / 1e9 / ops if fn(span).calls else 0.0
    restarts = stat("recovery.restarts")
    out["recovery.records_redone"] = _ratio(stat("recovery.records_redone"), restarts)
    out["recovery.redo_pages_accessed"] = _ratio(stat("recovery.redo_pages_accessed"), restarts)
    out["recovery.records_undone"] = _ratio(stat("recovery.records_undone"), restarts)
    for name in ("recovery.log_mb", "recovery.instant_drain_s", "recovery.ondemand_pages"):
        out[name] = traced.layer.get(name, 0.0)

    spans = sum(t.calls for t in totals.values())
    out["stats.incr_calls_per_op"] = tracer.incr_calls() / ops
    out["trace.overhead_ratio"] = _ratio(
        _ratio(traced.total.busy_s, traced.trace_ops),
        _ratio(untraced.total.busy_s, untraced.trace_ops),
    )
    out["trace.unattributed_share"] = _ratio(self_ns[BENCH], all_self)
    out["trace.spans_per_op"] = spans / ops
    return out, problems


def budget_view(workload: str, layer_values: dict[str, float], wall_us_per_op: float) -> str:
    """Layers sorted by their share of the traced wall, their sum set
    against that wall, and what no layer accounts for."""
    rows = sorted(
        ((layer_values[f"{layer}.self_share"], layer) for layer in LAYERS), reverse=True
    )
    lines = [f"budget {workload}: traced wall {wall_us_per_op:.1f} us/op by the workload's clock"]
    for share, layer in rows:
        lines.append(
            f"  {layer:<10} {share:7.1%} {layer_values[f'{layer}.self_us_per_op']:10.2f} us/op"
            f" {layer_values[f'{layer}.calls_per_op']:8.2f} calls/op"
        )
    layers = sum(share for share, _ in rows)
    unattributed = layer_values["trace.unattributed_share"]
    lines.append(
        f"  {'(none)':<10} {unattributed:7.1%} {unattributed * wall_us_per_op:10.2f} us/op unattributed"
    )
    lines.append(
        f"  layers {layers:.1%} + unattributed {unattributed:.1%} = {layers + unattributed:.2%} "
        f"of the wall; tracing slowed the run {layer_values['trace.overhead_ratio']:.2f}x"
    )
    return "\n".join(lines)
