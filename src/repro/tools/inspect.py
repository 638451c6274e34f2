"""Human-readable dumps of a database's internals.

The inspection helpers a maintainer reaches for when debugging a
reproduction or a test failure:

- :func:`dump_tree` — the B+-tree's structure, high keys, chains, and
  bits, as indented text;
- :func:`dump_log` — the log, one record per line, optionally filtered
  by transaction or page;
- :func:`dump_transaction` — one transaction's records with its
  PrevLSN/UndoNxtLSN chain annotated;
- :func:`dump_archive` — the WAL archive, segment by segment;
- :func:`summarize_stats` — the counter groups the paper's measures
  map onto (locks, latches, I/O, recovery work).

All helpers return strings; none mutate anything (pages are fixed
unlatched — quiesce first, as with ``BTree.check_structure``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.btree.node import IndexPage
from repro.btree.tree import BTree
from repro.wal.records import RecordKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.db import Database


def _key_repr(key, max_bytes: int = 12) -> str:
    value = key.value
    if len(value) > max_bytes:
        value = value[:max_bytes] + b"..."
    return f"{value!r}@{key.rid.page_id}:{key.rid.slot}"


def dump_tree(tree: BTree, max_keys_per_page: int = 4) -> str:
    """Indented structural dump of one index."""
    db = tree.ctx
    lines = [f"index {tree.name!r} (id={tree.index_id}, root={tree.root_page_id})"]

    def walk(page_id: int, depth: int) -> None:
        page = db.buffer.fix(page_id)
        try:
            if not isinstance(page, IndexPage):
                lines.append("  " * depth + f"page {page_id}: NOT AN INDEX PAGE")
                return
            bits = "".join(
                flag for flag, on in (("S", page.sm_bit), ("D", page.delete_bit)) if on
            )
            flags = f" bits={bits}" if bits else ""
            if page.is_leaf:
                n = page.key_count()
                shown = ", ".join(
                    _key_repr(page.key_at(i)) for i in range(min(n, max_keys_per_page))
                )
                more = f" ... +{n - max_keys_per_page}" if n > max_keys_per_page else ""
                lines.append(
                    "  " * depth
                    + f"leaf {page_id} lsn={page.page_lsn} n={n} "
                    f"prev={page.prev_leaf} next={page.next_leaf}{flags} "
                    f"[{shown}{more}]"
                )
                children: list[int] = []
            else:
                bounds = ", ".join(
                    f"{child}<{_key_repr(high) if high else 'inf'}"
                    for child, high in zip(page.child_ids, page.high_keys)
                )
                lines.append(
                    "  " * depth
                    + f"nonleaf {page_id} lsn={page.page_lsn} level={page.level}"
                    f"{flags} [{bounds}]"
                )
                children = list(page.child_ids)
        finally:
            db.buffer.unfix(page_id)
        for child in children:
            walk(child, depth + 1)

    walk(tree.root_page_id, 1)
    return "\n".join(lines)


def format_record(record) -> str:
    """One log record on one line."""
    bits = [f"lsn={record.lsn:>8}", f"txn={record.txn_id:<4}", record.kind.value]
    if record.op:
        bits.append(f"{record.rm}.{record.op}")
    if record.page_id is not None:
        bits.append(f"page={record.page_id}")
    bits.append(f"prev={record.prev_lsn}")
    if record.undo_next_lsn is not None:
        bits.append(f"undo_next={record.undo_next_lsn}")
    if not record.undoable and record.kind is RecordKind.UPDATE:
        bits.append("redo-only")
    return " ".join(bits)


def dump_log(
    db: "Database",
    from_lsn: int = 1,
    txn_id: int | None = None,
    page_id: int | None = None,
    limit: int | None = None,
) -> str:
    """The log, one record per line, optionally filtered."""
    lines = []
    for record in db.log.records(from_lsn):
        if txn_id is not None and record.txn_id != txn_id:
            continue
        if page_id is not None and record.page_id != page_id:
            continue
        lines.append(format_record(record))
        if limit is not None and len(lines) >= limit:
            lines.append("... (truncated)")
            break
    return "\n".join(lines) if lines else "(no matching records)"


def dump_transaction(db: "Database", txn_id: int) -> str:
    """One transaction's records with its backward chain annotated."""
    records = [r for r in db.log.records() if r.txn_id == txn_id]
    if not records:
        return f"(no records for transaction {txn_id})"
    lines = [f"transaction {txn_id}: {len(records)} records"]
    for record in records:
        marker = "  "
        if record.kind is RecordKind.DUMMY_CLR:
            marker = "⤶ "  # chain surgery: rollback jumps from here
        elif record.kind is RecordKind.CLR:
            marker = "↩ "
        lines.append(marker + format_record(record))
    return "\n".join(lines)


def dump_archive(
    db: "Database",
    from_lsn: int | None = None,
    limit: int | None = None,
) -> str:
    """The WAL archive, segment by segment, one record per line.

    The archive holds the truncated log prefix — together with
    ``dump_log(db, from_lsn=db.log.truncation_point)`` this is the full
    history PITR replays.
    """
    archive = db.archive
    if archive is None:
        return "(no archive attached)"
    segments = archive.segments()
    if not segments:
        return "(archive is empty)"
    lines = [
        f"archive [{archive.base_lsn}, {archive.end_lsn}): "
        f"{len(segments)} segments, "
        f"{sum(len(s.data) for s in segments)} bytes"
    ]
    shown = 0
    for index, seg in enumerate(segments):
        if from_lsn is not None and seg.end_lsn <= from_lsn:
            continue
        lines.append(
            f"-- segment {index} [{seg.first_lsn}, {seg.end_lsn}) "
            f"{len(seg.data)} bytes, {seg.record_count} records"
        )
        for record in archive.records(max(seg.first_lsn, from_lsn or 0), seg.end_lsn):
            lines.append("  " + format_record(record))
            shown += 1
            if limit is not None and shown >= limit:
                lines.append("... (truncated)")
                return "\n".join(lines)
    return "\n".join(lines)


def dump_indoubt(db: "Database") -> str:
    """A shard's prepared-but-undecided transactions, from its log.

    Scans for PREPARE records not followed by a COMMIT/ROLLBACK/END of
    the same transaction — the branches whose fate belongs to the 2PC
    coordinator (commit iff the coordinator holds a durable commit
    decision for the gid, abort otherwise: presumed abort).  Reads the
    log directly so it works on a freshly restarted shard, a PITR
    restore, or a live one; the live transaction table, when it
    disagrees, is shown too (it shouldn't).
    """
    prepares: dict[int, object] = {}
    for record in db.log.records():
        if record.kind is RecordKind.PREPARE:
            prepares[record.txn_id] = record
        elif record.kind in (
            RecordKind.COMMIT,
            RecordKind.ROLLBACK,
            RecordKind.END,
        ):
            prepares.pop(record.txn_id, None)
    live = {txn.txn_id: txn for txn in db.indoubt_transactions()}
    if not prepares and not live:
        return "(no in-doubt transactions)"
    lines = [f"{len(prepares)} in-doubt transaction(s):"]
    for txn_id, record in sorted(prepares.items()):
        payload = record.payload or {}
        locks = payload.get("locks") or []
        lines.append(
            f"  gid={payload.get('gid')!r} txn={txn_id} "
            f"prepare_lsn={record.lsn} locks={len(locks)}"
        )
        for name, mode in locks:
            lines.append(f"    {mode:>2} {tuple(name)}")
    log_only = set(prepares) - set(live)
    table_only = set(live) - set(prepares)
    if table_only:
        lines.append(
            f"  WARNING: in transaction table but not the log: {sorted(table_only)}"
        )
    if log_only and live:
        lines.append(
            f"  WARNING: in the log but not the transaction table: {sorted(log_only)}"
        )
    return "\n".join(lines)


_STAT_GROUPS = (
    ("locks", "lock."),
    ("latches", "latch."),
    ("buffer / I/O", "buffer."),
    ("disk", "disk."),
    ("injected faults", "faults."),
    ("log", "log."),
    ("btree", "btree."),
    ("heap", "heap."),
    ("transactions", "txn."),
    ("recovery", "recovery."),
    ("server", "server."),
    ("standby", "standby."),
    ("mvcc", "mvcc."),
)


def summarize_stats(db: "Database") -> str:
    """Counters grouped by subsystem (the paper's measures live here)."""
    sections = []
    for title, prefix in _STAT_GROUPS:
        body = db.stats.format_table(prefix)
        if body:
            sections.append(f"-- {title} --\n{body}")
    return "\n\n".join(sections) if sections else "(no counters)"


def dump_versions(db: "Database") -> str:
    """One-look view of the MVCC state: snapshot manager horizon,
    per-index dead-key counts, and a version-chain-length histogram
    (how many dead versions each distinct key value carries — the
    population GC exists to keep small).  Ghost slot counts come from
    the heaps; a ghost is the old version a snapshot may still need.
    """
    if db.mvcc is None:
        return "(mvcc is disabled: config.mvcc_enabled=False)"
    info = db.mvcc.info()
    lines = [
        "snapshot manager: "
        f"watermark={info['watermark']} high_ts={info['high_ts']} "
        f"commit_table={info['commit_table_size']} "
        f"active_snapshots={info['active_snapshots']} "
        f"oldest_ts={info['oldest_ts']} (GC horizon)"
    ]
    for table_name, table in sorted(db.tables.items()):
        db.mvcc_ensure_dead_keys(table)
        ghosts = len(table.heap.ghosts(db.incarnation))
        lines.append(f"table {table_name!r}: {ghosts} ghost slot(s)")
        for index_name, tree in sorted(table.indexes.items()):
            entries = list(db.versions.entries(tree.index_id))
            chain_lengths: dict[bytes, int] = {}
            for value, _rid, _xmax in entries:
                chain_lengths[value] = chain_lengths.get(value, 0) + 1
            histogram: dict[int, int] = {}
            for length in chain_lengths.values():
                histogram[length] = histogram.get(length, 0) + 1
            shape = (
                ", ".join(
                    f"{count} key(s) x{length}"
                    for length, count in sorted(histogram.items())
                )
                or "none"
            )
            lines.append(
                f"  index {index_name!r}: {len(entries)} dead key(s) "
                f"over {len(chain_lengths)} value(s) [chains: {shape}]"
            )
    return "\n".join(lines)


def dump_recovery_progress(db: "Database") -> str:
    """One-look view of a draining instant restart: governor progress
    plus the recovery counters an operator watches while pages drain.
    Steady state (or a database that never instant-restarted) says so.
    """
    lines = [f"recovery state: {db.recovery_state}"]
    governor = db.recovery
    if governor is None:
        lines.append("(no instant restart since the last crash)")
    else:
        progress = governor.progress()
        lines.append(
            f"pages pending: {progress['pages_pending']} "
            f"(redo: {progress['pages_redo_pending']}, "
            f"unverified: {progress['pages_unverified']})"
        )
        lines.append(
            f"recovered on demand: {progress['pages_recovered_ondemand']}, "
            f"in background: {progress['pages_recovered_background']}, "
            f"by a drain: {progress['pages_recovered_drain']}"
        )
        if progress["background_errors"]:
            lines.append(f"background errors: {progress['background_errors']}")
    counters = db.stats.format_table("recovery.")
    if counters:
        lines.append(counters)
    faults = db.stats.format_table("faults.")
    if faults:
        lines.append("-- injected faults --\n" + faults)
    return "\n".join(lines)


def dump_lockgraph() -> str:
    """The installed latch-order monitor's merged graph, one edge per
    line, with a cycle verdict — or a note that no monitor is active
    (see :func:`repro.harness.torture.enable_lockgraph`)."""
    from repro.storage.latch import get_latch_monitor

    monitor = get_latch_monitor()
    if monitor is None:
        return "(no latch-order monitor installed)"
    data = monitor.to_dict()
    lines = [f"latch acquisitions observed: {data['acquisitions']}"]
    for edge in data["edges"]:
        marker = "=>" if edge["blocking"] else "->"
        lines.append(
            f"  {edge['src']} {marker} {edge['dst']}  [{edge['kind']}]"
        )
    if data["cycle"]:
        lines.append("CYCLE (potential deadlock): " + " -> ".join(data["cycle"]))
    else:
        lines.append("acyclic over blocking edges (deadlock-free orderings)")
    return "\n".join(lines)
