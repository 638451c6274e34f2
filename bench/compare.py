"""``python -m bench compare A.json B.json``: did B get worse than A?

One row per workload x end-to-end metric of A (the contract metrics
and the per-operation details): both medians, the ratio B/A (A is the
base), the bound, and a verdict —

* ``worse``       B's median is worse than A's by more than the bound,
                  or B lacks a workload or metric that A has;
* ``unresolved``  the run-to-run spread of either side (distance between
                  the first and third quartile over its median) is wider
                  than the bound, or a timing has fewer than two runs on
                  a side, so the two cannot be told apart;
* ``ok``          otherwise.

Exit status 1 if any row is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import json
import sys
from statistics import median, quantiles

from bench.metrics import DETAIL, END_TO_END, Metric


def _values(entry: dict | None, name: str, contract: bool) -> list[float]:
    if entry is None:
        return []
    if contract:
        return [run["metrics"][name]["value"] for run in entry["runs"] if name in run["metrics"]]
    return [run["detail"][name] for run in entry["runs"] if name in run["detail"]]


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for a lone run)."""
    if len(values) < 2 or not median(values):
        return 0.0
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / abs(median(values))


def verdict(metric: Metric, a: list[float], b: list[float]) -> tuple[float, float, float, str]:
    """(median A, median B, wider spread, verdict) for one metric that
    both sides report."""
    med_a, med_b = median(a), median(b)
    wider = max(spread(a), spread(b))
    change = med_b - med_a
    if not metric.absolute:
        change = change / med_a if med_a else 0.0
        if (metric.timed and min(len(a), len(b)) < 2) or wider > metric.bound:
            return med_a, med_b, wider, "unresolved"
    if metric.better == "higher":
        change = -change
    return med_a, med_b, wider, "worse" if change > metric.bound else "ok"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(argv[0], encoding="utf-8") as fa, open(argv[1], encoding="utf-8") as fb:
        a, b = json.load(fa), json.load(fb)
    for label, result in (("A", a), ("B", b)):
        env = result["environment"]
        print(
            f"{label}: commit {env['commit'][:12]} seed {env['seed']} x{env['repeats']} "
            f"scale {env['scale']} python {env['python']} nproc {env['nproc']}"
        )
    print(
        f"{'workload':<20}{'metric':<26}{'A':>12}{'B':>12}{'B/A':>8}{'bound':>8}"
        f"{'spread':>8}  verdict"
    )
    bad = 0
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        for contract, metrics in ((True, END_TO_END), (False, DETAIL)):
            for metric in metrics:
                va = _values(entry_a, metric.name, contract)
                vb = _values(entry_b, metric.name, contract)
                if not va:
                    continue  # does not apply to this workload
                if not vb:
                    bad += 1
                    print(f"{workload:<20}{metric.name:<26}{median(va):>12.4f}{'missing':>12}  worse")
                    continue
                med_a, med_b, wider, word = verdict(metric, va, vb)
                bad += word != "ok"
                ratio = f"{med_b / med_a:8.3f}" if med_a else f"{'-':>8}"
                bound = f"{'+':>4}{metric.bound:.3f}" if metric.absolute else f"{metric.bound:8.1%}"
                print(
                    f"{workload:<20}{metric.name:<26}{med_a:>12.4f}{med_b:>12.4f}{ratio}"
                    f"{bound}{wider:>8.1%}  {word}"
                )
    print(f"{bad} row(s) worse or unresolved" if bad else "every row ok")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
