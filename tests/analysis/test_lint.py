"""The protocol lint: each rule fires on a seeded fixture, reasoned
suppressions silence them, and the shipped tree itself is clean."""

from __future__ import annotations

from pathlib import Path

import repro
from repro.analysis.lint import run_lint

#: One violation of every rule, in a single fixture module.
FIXTURE = '''\
def leaky_acquire(latch):
    latch.acquire("X")
    return 1


def blocking_under_latch(latch, log):
    latch.acquire("X")
    try:
        log.force()
    finally:
        latch.release()


def unstamped_mutation(self, txn, page, record):
    self.txns.log_for(txn, record)
    page.insert_key(b"k", (1, 2))


def string_lock_mode(db, txn):
    db.locks.request(txn.txn_id, ("rec", 1), "X")


def swallowed_broadly(thing):
    try:
        thing()
    except Exception:
        pass


def reasonless_suppression(latch):
    latch.acquire("X")  # noqa: RPR001
'''


def lint_source(tmp_path: Path, source: str):
    path = tmp_path / "fixture.py"
    path.write_text(source, encoding="utf-8")
    return run_lint([path])


def rules_fired(report) -> set[str]:
    return {v.rule for v in report.violations}


def test_every_rule_fires_on_the_fixture(tmp_path):
    report = lint_source(tmp_path, FIXTURE)
    assert rules_fired(report) == {
        "RPR000",  # the reasonless noqa at the bottom
        "RPR001",
        "RPR002",
        "RPR003",
        "RPR004",
        "RPR005",
    }
    assert not report.ok


def test_try_finally_pairs_the_acquire(tmp_path):
    report = lint_source(
        tmp_path,
        "def ok(latch):\n"
        "    latch.acquire('X')\n"
        "    try:\n"
        "        work()\n"
        "    finally:\n"
        "        latch.release()\n",
    )
    assert "RPR001" not in rules_fired(report)


def test_acquire_inside_with_is_paired(tmp_path):
    report = lint_source(
        tmp_path,
        "def ok(pool):\n"
        "    with pool.fix(7) as page:\n"
        "        return page\n",
    )
    assert "RPR001" not in rules_fired(report)


def test_reasoned_suppression_is_clean(tmp_path):
    report = lint_source(
        tmp_path,
        "def transfer(latch):\n"
        "    latch.acquire('X')  # noqa: RPR001 - ownership transfer\n"
        "    return latch\n",
    )
    assert report.ok


def test_reasonless_suppression_reports_rpr000(tmp_path):
    report = lint_source(
        tmp_path,
        "def transfer(latch):\n"
        "    latch.acquire('X')  # noqa: RPR001\n"
        "    return latch\n",
    )
    assert rules_fired(report) == {"RPR000"}


def test_lock_constants_pass_rpr004(tmp_path):
    report = lint_source(
        tmp_path,
        "def ok(db, txn, mode):\n"
        "    db.locks.request(txn.txn_id, ('rec', 1), mode)\n",
    )
    assert "RPR004" not in rules_fired(report)


def test_stamped_mutation_passes_rpr003(tmp_path):
    report = lint_source(
        tmp_path,
        "def ok(self, txn, page, record):\n"
        "    self.log_page_change(txn, page, record, lambda: page.insert_key(b'k'))\n",
    )
    assert "RPR003" not in rules_fired(report)


def test_hand_stamped_mutation_is_flagged_by_rpr003(tmp_path):
    """Stamping the page by hand after log_for is no longer enough: the
    record would carry no link to the page's PageLSN."""
    report = lint_source(
        tmp_path,
        "def stamped(self, txn, page, record):\n"
        "    lsn = self.txns.log_for(txn, record)\n"
        "    page.insert_key(b'k', (1, 2))\n"
        "    page.page_lsn = lsn\n"
        "    self.buffer.mark_dirty(page.page_id, lsn)\n",
    )
    assert rules_fired(report) == {"RPR003"}


def test_page_record_through_log_for_is_flagged_by_rpr003(tmp_path):
    report = lint_source(
        tmp_path,
        "def fmt(self, txn, page_id):\n"
        "    record = update_record(txn.txn_id, 'heap', 'format', page_id, {})\n"
        "    self.txns.log_for(txn, record)\n"
        "\n"
        "def undo(self, txn, page_id, prev):\n"
        "    self.txns.log_for(txn, clr_record(1, 'btree', 'op', page_id, {}, prev))\n",
    )
    assert [v.rule for v in report.violations] == ["RPR003", "RPR003"]


def test_non_page_records_may_use_log_for(tmp_path):
    report = lint_source(
        tmp_path,
        "def end(self, txn):\n"
        "    record = LogRecord(kind=END, txn_id=txn.txn_id)\n"
        "    self.txns.log_for(txn, record)\n"
        "    self.txns.log_for(txn, dummy_clr(txn.txn_id, undo_next_lsn=3))\n",
    )
    assert report.ok


def test_src_tree_is_clean():
    """The acceptance gate: the shipped tree lints clean (violations
    are either fixed or carry reasoned suppressions)."""
    package_root = Path(repro.__file__).resolve().parent
    report = run_lint([package_root])
    assert report.files_checked > 50
    assert report.ok, report.format()


def test_cli_prints_each_finding_and_fails(tmp_path, capsys):
    """``python -m repro.analysis lint`` prints one ``path:line: rule``
    line per finding and exits non-zero, which is what fails CI."""
    from repro.analysis.lint import main

    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    assert main([str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert f"{path}:2: RPR001" in "\n".join(out)
    assert out[-1] == f"{len(out) - 1} finding(s) in 1 file(s)"
