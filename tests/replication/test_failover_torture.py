"""Seeded failover torture: crash the primary mid-load, promote the
standby, verify the acked commit set survives exactly.

Each round runs a multi-session client workload against a replicated
primary, crashes it (including with commits parked inside the
group-commit flush window), promotes the standby, and asserts: every
acked commit visible, every CommitNotDurableError absent, in-doubt
responses either way, no ghosts — and in the async modes, that the
promoted state equals what restarting the old primary would have
produced.  A failing seed replays exactly:
``run_round(TortureSpec(kind="failover", seed=N, crash_mode=...))``.
"""

import pytest

from repro.harness.torture import TortureSpec, run_round, run_sweep

BATCH = 6


@pytest.mark.parametrize("batch", range(30 // BATCH))
def test_failover_sweep(batch):
    reports = run_sweep("failover", range(batch * BATCH, (batch + 1) * BATCH))
    assert len(reports) == BATCH


def test_crash_inside_flush_window_is_reachable():
    """The sweep must actually land crashes in the enqueue→flush window,
    or the headline scenario is untested."""
    reports = [
        run_round(TortureSpec(kind="failover", seed=seed, crash_mode="held_flush"))
        for seed in range(6)
    ]
    assert any(r.parked_at_crash > 0 for r in reports)
    assert all(r.primary_agreement_checked for r in reports)


def test_sync_mode_promotes_without_drain():
    """In sync mode the promoted standby never drains the dead
    primary's log — the commit gate alone carries the acked set."""
    report = run_round(TortureSpec(kind="failover", seed=2, crash_mode="sync"))
    assert report.sync
    assert not report.primary_agreement_checked
    assert report.lost_commits == 0 or report.acked_requests > 0
