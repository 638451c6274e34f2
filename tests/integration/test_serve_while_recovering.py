"""Serve-while-recovering torture: instant restart under live traffic.

Each round crashes a loaded multi-session server (torn page writes and
WAL-tail loss armed), restarts with on-demand recovery only (no
background thread), reads every key whose acked state is known
*through the still-recovering server* — asserting the acked commit set
is exactly preserved and no stale state is visible — then starts the
background drain, fires a second write burst at it, and verifies the
combined end state against a stop-the-world restart.

A failing seed replays exactly:
``run_round(TortureSpec(kind="recovering", seed=N))``.
"""

from __future__ import annotations

import json

import pytest

from repro.harness.torture import TortureSpec, main, run_round, run_sweep

BATCH = 10
SEEDS = 30  # the acceptance floor


@pytest.mark.parametrize("batch", range(SEEDS // BATCH))
def test_serve_while_recovering_sweep(batch):
    reports = run_sweep("recovering", range(batch * BATCH, (batch + 1) * BATCH))
    assert len(reports) == BATCH
    # Real acknowledged traffic and real stale-read checks every round.
    assert all(r.acked_requests > 0 for r in reports)
    assert all(r.stale_reads_checked > 0 for r in reports)
    # The sweep as a whole exercised the lazy path: reads landed on
    # pages that were still unrecovered when they arrived.
    assert sum(r.recovered_ondemand for r in reports) > 0


def test_round_reports_recovery_work():
    report = run_round(TortureSpec(kind="recovering", seed=3))
    assert report.pages_pending_at_open > 0
    assert report.recovered_ondemand + report.recovered_background > 0


def test_heavier_round_with_more_sessions():
    report = run_round(
        TortureSpec(
            kind="recovering",
            seed=1,
            sessions=8,
            requests_per_session=30,
            key_space=320,
        )
    )
    assert report.acked_requests > 0
    assert report.stale_reads_checked > 0


def test_snapshot_readers_race_the_drain(capsys):
    """``python -m repro.harness.torture --kind recovering
    --snapshot-readers 2``: snapshot readers race the load before the
    crash and the background drain after it.  Losers are not in the
    MVCC commit table, so no double-read inside one snapshot may differ
    (each round asserts zero torn reads)."""
    assert main(["--kind", "recovering", "--seeds", "2", "--snapshot-readers", "2"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert [r["kind"] for r in reports] == ["recovering", "recovering"]
    assert sum(r["snapshot_reads"] for r in reports) > 0
