"""``--scale 0.05`` smoke: every named metric, for every workload."""

from __future__ import annotations

import pytest

from bench.metrics import END_TO_END, PER_LAYER
from bench.workloads import WORKLOADS

#: The per-operation details each workload's mix must yield.
DETAIL_OF = {
    "embedded_read": {"fetch", "scan"},
    "embedded_write": {"insert", "delete"},
    "embedded_coldcache": {"fetch", "scan", "insert", "delete"},
    "server_pipelined": {"fetch", "scan", "insert", "delete"},
    "server_strict": {"fetch", "scan", "insert", "delete"},
    "restart": {"fetch"},
}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(smoke_runs, name):
    last, record = smoke_runs[name, 0]
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert list(last["metrics"]) == [m.name for m in END_TO_END]
    for metric in END_TO_END:
        entry = last["metrics"][metric.name]
        assert entry["unit"] == metric.unit
        assert entry["value"] > 0, f"{metric.name} must never be 0"
    detail = record["detail"]
    for kind in DETAIL_OF[name]:
        assert detail[f"{kind}_p50_ms"] > 0 and detail[f"{kind}_p99_ms"] > 0
        assert record["samples"][f"{kind}_p50_ms"] >= 1
    assert detail["failed_share"] == 0
    assert ("log_bytes_per_user_byte" in detail) == (
        name in ("embedded_write", "embedded_coldcache")
    )
    if name == "restart":
        assert detail["restart_s"] > 0 and detail["ttft_s"] > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(smoke_runs, name):
    last, record = smoke_runs[name, 1]
    assert last["correct"] is True
    assert list(last["metrics"]) == [m.name for m in PER_LAYER]
    assert len(PER_LAYER) == 101
    value = {k: v["value"] for k, v in last["metrics"].items()}
    assert value["trace.overhead_ratio"] > 0
    assert value["trace.spans_per_op"] > 0
    assert record["budget"].startswith(f"budget {name}")


def test_predictions_hold_on_this_tree(smoke_runs):
    def layer(name):
        return {k: v["value"] for k, v in smoke_runs[name, 1][0]["metrics"].items()}

    assert layer("embedded_read")["wal.calls_per_op"] == 0
    for name in ("embedded_read", "embedded_write"):
        assert layer(name)["buffer.hit_ratio"] == 1.0
    for name in ("embedded_read", "embedded_write", "embedded_coldcache"):
        assert layer(name)["server.calls_per_op"] == 0
        assert layer(name)["client.calls_per_op"] == 0
    # The spans of the restart budget cover restart() only: redo takes no locks.
    assert layer("restart")["locks.calls_per_op"] == 0
    assert layer("restart")["recovery.redo_s"] > 0
    assert layer("server_pipelined")["server.requests_per_batch"] > 1
    assert layer("server_strict")["server.requests_per_batch"] == 1


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_layers_and_unattributed_add_up_to_the_wall(smoke_runs, name):
    from bench.trace import LAYERS

    value = {k: v["value"] for k, v in smoke_runs[name, 1][0]["metrics"].items()}
    total = sum(value[f"{layer}.self_share"] for layer in LAYERS)
    assert total + value["trace.unattributed_share"] == pytest.approx(1.0, abs=0.01)
    assert -0.01 <= value["trace.unattributed_share"] < 0.5
