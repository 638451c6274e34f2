"""E1 — Figure 2: the locking summary table, regenerated empirically.

For each protocol, single operations run under a lock audit; the
observed (lock target, mode, duration) rows are printed side by side
with the paper's table and asserted row by row for ARIES/IM.

Paper expectation (Figure 2, data-only locking):

    operation          next key              current key
    fetch/fetch next   —                     S commit
    insert             X instant             (record lock: X commit)
    delete             X commit              (record lock: X commit)
"""

from repro.btree.protocol import COMPARED_PROTOCOLS
from repro.harness.lockaudit import figure2_rows
from repro.harness.report import format_table

from _common import write_result


def render(protocol: str) -> str:
    rows = figure2_rows(protocol)
    return format_table(
        ["operation", "lock target", "mode", "duration", "count"],
        [(r.operation, r.lock_target, r.mode, r.duration, r.count) for r in rows],
        title=f"Figure 2 observed — {protocol}",
    )


def test_e01_figure2_all_protocols(benchmark):
    tables = benchmark.pedantic(
        lambda: {p: render(p) for p in COMPARED_PROTOCOLS}, rounds=1, iterations=1
    )
    write_result("e01_figure2", "\n\n".join(tables.values()))

    # Assert the ARIES/IM rows exactly (the paper's table).
    rows = figure2_rows("aries_im_data_only")
    by_op = {}
    for row in rows:
        by_op.setdefault(row.operation, set()).add((row.lock_target, row.mode, row.duration))
    assert by_op["fetch (present)"] == {("record", "S", "commit")}
    assert by_op["fetch (absent: next key)"] == {("record", "S", "commit")}
    assert by_op["fetch (eof)"] == {("eof", "S", "commit")}
    assert ("record", "X", "instant") in by_op["insert"]  # next key
    assert ("record", "X", "commit") in by_op["insert"]  # the record itself
    assert ("record", "X", "commit") in by_op["delete"]  # next key, commit duration
    assert all(
        (duration != "instant") for (_, _, duration) in by_op["delete"]
    ), "delete's next-key lock is commit duration (asymmetry of §2.6)"

    index_rows = figure2_rows("aries_im_index_specific")
    by_op = {}
    for row in index_rows:
        by_op.setdefault(row.operation, set()).add((row.lock_target, row.mode, row.duration))
    assert ("key", "X", "commit") in by_op["insert"]  # current key X commit
    assert ("key", "X", "instant") in by_op["delete"]  # current key X instant
