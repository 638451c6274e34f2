"""Experiment harness: workloads, lock audits, interleaving counts,
fault/crash torture rounds."""

from repro.harness.lockaudit import AuditRow, audit_operation, figure2_rows
from repro.harness.loadgen import (
    LatencyRecorder,
    LoadgenReport,
    LoadgenSpec,
    run_loadgen,
)
from repro.harness.torture import (
    TortureReport,
    TortureSpec,
    run_round,
    run_sweep,
)
from repro.harness.interleave import (
    Scenario,
    canonical_scenarios,
    count_permitted_interleavings,
    interleaving_table,
)
from repro.harness.report import format_ratio, format_table
from repro.harness.workload import (
    Operation,
    RunResult,
    WorkloadSpec,
    generate_operations,
    make_database,
    run_operations,
)

__all__ = [
    "AuditRow",
    "LatencyRecorder",
    "LoadgenReport",
    "LoadgenSpec",
    "Operation",
    "RunResult",
    "Scenario",
    "TortureReport",
    "TortureSpec",
    "WorkloadSpec",
    "audit_operation",
    "canonical_scenarios",
    "count_permitted_interleavings",
    "figure2_rows",
    "format_ratio",
    "format_table",
    "generate_operations",
    "interleaving_table",
    "make_database",
    "run_loadgen",
    "run_operations",
    "run_round",
    "run_sweep",
]
