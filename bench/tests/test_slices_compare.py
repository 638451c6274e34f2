"""Reference seconds, slices, the compare verdicts, and BENCHMARK.json
in step with the code."""

from __future__ import annotations

import json

import pytest

from bench import calibration
from bench.__main__ import RUN_SECONDS
from bench.calibration import SpeedMeter
from bench.compare import main as compare_main
from bench.compare import spread, verdict
from bench.metrics import DETAIL, END_TO_END, PER_LAYER, end_to_end
from bench.tests.conftest import ROOT
from bench.workloads import WORKLOADS, Measured, Recorder


def test_a_slow_machine_shortens_the_reported_time():
    ref = calibration.REFERENCE_SECONDS
    meter = SpeedMeter()
    assert meter.take() == 1.0  # no sample yet: uncorrected
    # The loop took twice its reference time: the machine ran at half
    # speed, so 1 s of it is 0.5 s on the reference machine.
    meter._samples = [2 * ref, 2 * ref, 9 * ref]  # the median ignores one outlier
    assert meter.take() == pytest.approx(0.5)
    assert meter.take() == pytest.approx(0.5)  # nothing new: the last factor again
    meter._samples = [ref]
    assert meter.take() == pytest.approx(1.0)


def _recorder(slices, monkeypatch) -> Recorder:
    """A caller whose slices ran (ops, seconds per op, machine speed)."""
    rec = Recorder(slice_ops=4)
    monkeypatch.setattr(rec.meter, "sample", lambda: None)
    for ops, seconds, speed in slices:
        monkeypatch.setattr(rec.meter, "take", lambda speed=speed: speed)
        for _ in range(ops):
            rec.add("fetch", seconds)
            rec.busy(seconds)
            rec.cut_if_full()
    rec.close()
    return rec


def test_a_run_reports_its_median_slice(monkeypatch):
    # Five slices of 4 ops; one ran on a disturbed host (10x slower), one
    # at half machine speed (its 2 ms ops are 1 ms reference), and the
    # phase ended in a shorter stretch that is left out of the medians.
    rec = _recorder(
        [(4, 0.001, 1.0), (4, 0.010, 1.0), (4, 0.002, 0.5), (4, 0.001, 1.0), (2, 0.5, 1.0)],
        monkeypatch,
    )
    assert [s.complete for s in rec.slices] == [True, True, True, True, False]
    assert rec.ops == 18 and rec.latency("fetch").count == 18
    assert rec.median_throughput() == pytest.approx(1000.0)
    values = end_to_end(Measured(rec, rec.median_throughput(), {}), 1.0, 1.0)
    assert values["op_p50_ms"] == pytest.approx(1.0)
    assert values["op_p99_ms"] == pytest.approx(1.0)
    assert rec.wall_s == pytest.approx(0.004 + 0.04 + 0.008 + 0.004 + 1.0)
    assert rec.busy_s == pytest.approx(0.004 + 0.04 + 0.004 + 0.004 + 1.0)


def test_a_phase_too_short_for_a_slice_still_reports(monkeypatch):
    rec = _recorder([(3, 0.001, 1.0)], monkeypatch)
    assert rec.median_throughput() == pytest.approx(1000.0)


def _metric(name):
    return next(m for m in (*END_TO_END, *DETAIL) if m.name == name)


def test_compare_verdicts():
    throughput, latency = _metric("throughput_ops_s"), _metric("op_p50_ms")
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(throughput, steady, [v * 0.97 for v in steady])[3] == "ok"
    assert verdict(throughput, steady, [v * 0.80 for v in steady])[3] == "worse"
    assert verdict(throughput, steady, [v * 1.30 for v in steady])[3] == "ok"  # higher is better
    assert verdict(latency, steady, [v * 1.20 for v in steady])[3] == "worse"
    noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
    assert spread(noisy) > throughput.bound
    assert verdict(throughput, steady, noisy)[3] == "unresolved"
    # One run has no spread: a timing cannot be resolved, a count can.
    assert verdict(throughput, [100.0], [100.0])[3] == "unresolved"
    log_bytes = _metric("log_bytes_per_user_byte")
    assert verdict(log_bytes, [95.0], [95.3])[3] == "ok"
    assert verdict(log_bytes, [95.0], [96.0])[3] == "worse"  # 1% more WAL
    failed = _metric("failed_share")
    assert verdict(failed, [0.0, 0.0], [0.0005, 0.0005])[3] == "ok"
    assert verdict(failed, [0.0, 0.0], [0.002, 0.002])[3] == "worse"


def test_the_bounds():
    # ISSUE 13's bounds for everything the driver does not gate; what it
    # gates follows its rule (a third of the bound above the spread seen).
    for metric in DETAIL:
        expected = {"log_bytes_per_user_byte": 0.005, "failed_share": 0.001}.get(metric.name, 0.10)
        assert metric.bound == expected, metric.name
    assert len(DETAIL) + 3 == 15  # + setup_s, throughput_ops_s, peak_rss_mb: ISSUE 13's list
    assert all(0.10 <= m.bound <= 0.25 for m in END_TO_END)
    assert max(m.bound for m in END_TO_END) == END_TO_END[0].bound  # setup_s


def _result(workloads: dict) -> dict:
    env = {"commit": "c", "seed": 1, "repeats": 2, "scale": 1.0, "python": "3", "nproc": 2}
    return {
        "environment": env,
        "workloads": {
            name: {
                "runs": [
                    {"metrics": {k: {"value": v} for k, v in run.items()}, "detail": {}}
                    for run in runs
                ]
            }
            for name, runs in workloads.items()
        },
    }


def test_compare_counts_what_b_lacks_as_worse(tmp_path, capsys):
    run = {m.name: 1.0 for m in END_TO_END}
    a = _result({"embedded_read": [run, run], "restart": [run, run]})
    same = tmp_path / "a.json"
    same.write_text(json.dumps(a))
    assert compare_main([str(same), str(same)]) == 0
    dropped = tmp_path / "b.json"
    dropped.write_text(json.dumps(_result({"embedded_read": [run, run]})))
    assert compare_main([str(same), str(dropped)]) == 1
    assert "missing" in capsys.readouterr().out
    thinner = {k: v for k, v in run.items() if k != "op_p99_ms"}
    dropped.write_text(
        json.dumps(_result({"embedded_read": [thinner, thinner], "restart": [run, run]}))
    )
    assert compare_main([str(same), str(dropped)]) == 1


def test_benchmark_json_repeats_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["paths"] == ["bench"] and doc["run_seconds"] == RUN_SECONDS
    assert doc["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in END_TO_END
    ]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
