"""Compare ARIES/IM's locking against the baselines, live.

Prints the Figure 2 lock table observed empirically for each protocol,
then a lock-count comparison over one workload — the paper's headline
claim (§1, §5): data-only locking acquires the fewest locks.

Run:  python examples/protocol_comparison.py
"""

from repro.btree.protocol import COMPARED_PROTOCOLS
from repro.harness.lockaudit import figure2_rows
from repro.harness.report import format_table
from repro.harness.workload import (
    WorkloadSpec,
    generate_operations,
    make_database,
    run_operations,
)


def show_figure2(protocol: str) -> None:
    rows = figure2_rows(protocol)
    table = format_table(
        ["operation", "lock target", "mode", "duration", "count"],
        [(r.operation, r.lock_target, r.mode, r.duration, r.count) for r in rows],
        title=f"Observed locking — {protocol}",
    )
    print(table)
    print()


def lock_counts(protocol: str) -> tuple[int, int]:
    spec = WorkloadSpec(n_initial=300, key_space=3000, seed=17)
    db = make_database(spec, protocol=protocol)
    operations = generate_operations(spec, 400)
    before = db.stats.snapshot()
    run_operations(db, spec, operations)
    delta = db.stats.diff(before)
    requests = sum(v for k, v in delta.items() if k.startswith("lock.requests."))
    commit_duration = sum(
        v for k, v in delta.items() if k.startswith("lock.requests.") and k.endswith(".commit")
    )
    return requests, commit_duration


def main() -> None:
    for protocol in COMPARED_PROTOCOLS:
        show_figure2(protocol)

    rows = []
    baseline = None
    for protocol in COMPARED_PROTOCOLS:
        total, commit = lock_counts(protocol)
        if baseline is None:
            baseline = total
        rows.append((protocol, total, commit, f"{total / baseline:.2f}x"))
    print(
        format_table(
            ["protocol", "lock requests", "commit-duration", "vs data-only"],
            rows,
            title="Lock volume over one 400-operation workload",
        )
    )


if __name__ == "__main__":
    main()
