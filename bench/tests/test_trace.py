"""The tracer's arithmetic, and that it leaves no trace behind."""

from __future__ import annotations

import importlib
import sys

import pytest

from bench.metrics import BUDGET_TOLERANCE, per_layer
from bench.trace import BENCH, LAYERS, TARGETS, Tracer, span_self_times


def test_self_time_of_a_hand_built_nested_trace():
    # op [0,100] -> fetch [10,90] -> (traverse [20,50] -> latch [30,35]), lock [60,80]
    spans = [
        (1, 0, 0, 100),
        (2, 1, 10, 90),
        (3, 2, 20, 50),
        (4, 3, 30, 35),
        (5, 2, 60, 80),
    ]
    assert span_self_times(spans) == {1: 20, 2: 30, 3: 25, 4: 5, 5: 20}
    assert sum(span_self_times(spans).values()) == 100  # self times tile the root


def _patched_attributes():
    """Every attribute install() may rebind: (owner, name) -> object."""
    found = {}
    for _, modname, owner, attrs in TARGETS:
        module = importlib.import_module(modname)
        for attr in attrs:
            if owner:
                cls = getattr(module, owner)
                found[cls, attr] = cls.__dict__[attr]
                continue
            original = getattr(module, attr)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] == "repro":
                    if mod.__dict__.get(attr) is original:
                        found[mod, attr] = original
    from repro.common.stats import StatsRegistry

    found[StatsRegistry, "incr"] = StatsRegistry.__dict__["incr"]
    return found


def test_wrap_then_unwrap_restores_every_attribute():
    import repro.db  # noqa: F401 - load the importers before looking

    before = _patched_attributes()
    assert len(before) > sum(len(attrs) for *_, attrs in TARGETS)  # importers found too
    tracer = Tracer()
    tracer.install()
    try:
        during = {key: key[0].__dict__[key[1]] for key in before}
        assert all(during[key] is not before[key] for key in before)
    finally:
        tracer.uninstall()
    after = {key: key[0].__dict__[key[1]] for key in before}
    assert all(after[key] is before[key] for key in before)
    leftovers = [
        (mod.__name__, name)
        for mod in list(sys.modules.values())
        if getattr(mod, "__name__", "").split(".")[0] == "repro"
        for name, value in vars(mod).items()
        if callable(value) and hasattr(value, "__wrapped__") and "bench" in value.__module__
    ]
    assert not leftovers


def test_online_sums_tile_the_root_spans():
    """Layer self times + the root spans' own self time = root durations,
    exactly: nothing is counted twice and nothing is lost.  The
    workload's own clock is read outside the spans and must still agree
    with them."""
    from bench.calibration import SpeedMeter
    from bench.workloads import WORKLOADS

    workload = WORKLOADS["embedded_write"]
    workload.setup(3, 0.02, SpeedMeter())
    tracer = Tracer(sample_every=50)
    measured = workload.measure(300, 100, tracer)
    assert not workload.finish() and not measured.problems
    totals = measured.totals
    roots = sum(t.root_ns for name, t in totals.items() if tracer.layer_of(name) == BENCH)
    assert roots > 0
    assert sum(t.root_ns for t in totals.values()) == roots  # one thread: only ops are roots
    assert sum(t.self_ns for t in totals.values()) == roots
    values, problems = per_layer(measured, measured, tracer)
    assert not problems
    assert roots == pytest.approx(measured.total.wall_s * 1e9, rel=BUDGET_TOLERANCE)
    unattributed = sum(t.self_ns for n, t in totals.items() if tracer.layer_of(n) == BENCH)
    assert values["trace.unattributed_share"] == pytest.approx(
        unattributed / (measured.total.wall_s * 1e9)
    )
    assert {tracer.layer_of(name) for name in totals} <= {*LAYERS, BENCH}
    # Table.scan is a generator: it is spanned while iterated.
    assert totals["Table.insert"].calls > 0 and totals["Table.insert"].self_ns > 0
    assert totals["encode_value"].payload_bytes > 0


def test_a_budget_that_misses_the_wall_is_a_problem():
    from bench.calibration import SpeedMeter
    from bench.workloads import WORKLOADS

    workload = WORKLOADS["embedded_read"]
    workload.setup(3, 0.02, SpeedMeter())
    tracer = Tracer()
    measured = workload.measure(200, 100, tracer)
    assert not workload.finish()
    assert not per_layer(measured, measured, tracer)[1]
    measured.total.wall_s *= 1.05  # the two clocks disagree by 5%
    problems = per_layer(measured, measured, tracer)[1]
    assert problems and "of the traced wall" in problems[0]


def test_a_generator_is_spanned_while_it_is_iterated():
    from bench.calibration import SpeedMeter
    from bench.workloads import WORKLOADS

    workload = WORKLOADS["embedded_read"]
    workload.setup(3, 0.02, SpeedMeter())
    tracer = Tracer()
    measured = workload.measure(200, 100, tracer)
    assert not workload.finish() and not measured.problems
    scan = measured.totals["Table.scan"]
    assert scan.calls == measured.total.scans > 0
    assert scan.total_ns > scan.self_ns > 0  # index_fetch_next ran inside its spans
