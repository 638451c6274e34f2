"""Group-commit durability torture: multi-session clients vs. crashes.

Each round runs N client sessions against an in-process server over a
group-committing database, crashes (or gracefully drains) at a seeded
point, restarts, and checks the acknowledgement contract both ways:

- every request the server *acknowledged* is durable after restart;
- every commit the server reported lost (``CommitNotDurableError``)
  left no trace.

The ``held_flush`` mode aims the crash at the acceptance-criteria
window — a leader that has taken its batch, and the committers parked
behind it, for a flush that never happens — and asserts they were
settled as lost, not acknowledged.

A failing seed replays exactly:
``run_multisession_round(MultiSessionSpec(seed=N, crash_mode=...))``.
"""

from __future__ import annotations

import pytest

from repro.harness.torture import (
    MultiSessionSpec,
    run_multisession,
    run_multisession_round,
)

BATCH = 10
SEEDS = 60  # the acceptance floor is 50


@pytest.mark.parametrize("batch", range(SEEDS // BATCH))
def test_multisession_sweep(batch):
    reports = run_multisession(range(batch * BATCH, (batch + 1) * BATCH))
    assert len(reports) == BATCH
    # Clients did real acknowledged work every round.
    assert all(r.acked_requests > 0 for r in reports)


def test_crash_in_flush_window_loses_only_unacknowledged_commits():
    """Commits parked between batch enqueue and flush when the crash
    lands must resolve as lost — run_multisession_round itself asserts
    no acked write is missing and no lost write survives."""
    for seed in range(12):
        report = run_multisession_round(
            MultiSessionSpec(seed=seed, crash_mode="held_flush")
        )
        # The round pauses a leader on a batch it has already taken
        # (its own commit among them), so the crash cannot miss the
        # window.
        assert report.parked_at_crash > 0, f"seed {seed}: nothing parked at the crash"
        assert report.lost_commits > 0


def test_racing_crash_rounds_hold_invariants():
    for seed in range(8):
        report = run_multisession_round(
            MultiSessionSpec(seed=seed, crash_mode="racing")
        )
        assert report.acked_requests > 0


def test_graceful_shutdown_rounds_lose_nothing():
    for seed in range(4):
        report = run_multisession_round(
            MultiSessionSpec(seed=seed, crash_mode="graceful")
        )
        assert report.lost_commits == 0


def test_group_commit_coalesces_under_concurrency():
    """The headline stats assertion: with 16 concurrent sessions and a
    priced flush, group commit performs well under half a sync force
    per commit.  (Unpriced, a flush costs nothing to wait for, so each
    commit forces at once — by design.)"""
    report = run_multisession_round(
        MultiSessionSpec(
            seed=0,
            sessions=16,
            requests_per_session=30,
            key_space=640,
            crash_mode="graceful",
            log_flush_latency_seconds=0.0002,
        )
    )
    assert report.commits >= 100
    assert report.sync_forces < 0.5 * report.commits, (
        f"{report.sync_forces} forces for {report.commits} commits "
        "— group commit saved too little"
    )
    assert report.flushes_saved > 0
