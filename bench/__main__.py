"""``python -m bench``: run the benchmark, or compare two result files.

    python -m bench [--repeats N]         all six workloads: N untraced runs of one
                                          seed, then a traced one, each in a fresh
                                          interpreter
    python -m bench --workload NAME ...   one run in this process; the last line of
                                          standard output is the driver's JSON object
    python -m bench compare A.json B.json

Run from the repository root; the engine is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: Nominal length of a measured phase; ``run_seconds`` in BENCHMARK.json.
RUN_SECONDS = 15.0


def _record_path(workload: str, trace: int) -> Path:
    return OUT_DIR / f"last_{workload}_trace{trace}.json"


def run_one(name: str, seed: int, scale: float, seconds: float, trace: bool) -> dict:
    """Set up, measure and check one workload in this process."""
    import resource

    from bench import metrics
    from bench.calibration import SpeedMeter
    from bench.trace import Tracer
    from bench.workloads import SAMPLE_EVERY, SETUP_REPEATS, SLICES, WORKLOADS

    workload = WORKLOADS[name]
    ops = workload.ops_for(seconds, scale)
    slice_ops = max(1, ops // SLICES)

    setups = []
    meter = SpeedMeter()
    for attempt in range(SETUP_REPEATS):
        if attempt:
            workload.discard()
        meter.sample()
        start = perf_counter()
        workload.setup(seed, scale, meter)
        waited = perf_counter() - start
        meter.sample()
        setups.append(waited * meter.take())
    setup_s = median(setups)

    record: dict = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
        "ops": ops,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        **workload.describe(),
    }
    if not trace:
        phases = [workload.measure(ops, slice_ops, None)]
    else:
        # A traced run does a quarter of the operations, same seed.  Its
        # untraced quarter is this run's own reference for what the
        # wrappers cost; the traced rest gives the per-layer numbers.
        tracer = Tracer(sample_every=SAMPLE_EVERY)
        phases = [
            workload.measure(max(1, round(ops / 16)), slice_ops, None),
            workload.measure(max(1, round(ops * 3 / 16)), slice_ops, tracer),
        ]
    finish_problems = workload.finish()
    measured = phases[-1]
    # Reference seconds per wall second (bench/calibration.py): how far
    # from the reference machine this box ran, slice by slice.
    speeds = sorted(s.speed for s in measured.total.slices)
    record["host_speed"] = {"median": median(speeds), "min": speeds[0], "max": speeds[-1]}
    budget_problems = []
    if not trace:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = metrics.end_to_end(measured, setup_s, rss_mb)
        specs = metrics.END_TO_END
        record["detail"], record["samples"] = metrics.detail(measured)
    else:
        values, budget_problems = metrics.per_layer(measured, phases[0], tracer)
        specs = metrics.PER_LAYER
        OUT_DIR.mkdir(exist_ok=True)
        record["sampled_spans"] = tracer.write_samples(str(OUT_DIR / f"trace_{name}.jsonl"))
        record["budget"] = metrics.budget_view(
            name, values, 1e6 * measured.total.wall_s / measured.trace_ops
        )

    record["metrics"] = {m.name: {"value": values[m.name], "unit": m.unit} for m in specs}
    record["attempted"] = sum(phase.total.ops for phase in phases)
    record["failed"] = sum(phase.total.failed for phase in phases)
    record["problems"] = (
        [p for phase in phases for p in phase.problems] + finish_problems + budget_problems
    )
    # A refusal (deadlock victim, timeout, overload) is a failed operation
    # of a correct system; a wrong result or any other error is a problem.
    record["correct"] = not record["problems"]
    return record


def print_record(record: dict) -> None:
    head = (
        f"{record['workload']} seed={record['seed']} trace={record['trace']} "
        f"attempted={record['attempted']} failed={record['failed']} "
        f"config={record['config']} host_speed={record['host_speed']['median']:.3f}"
    )
    print(head)
    samples = record.get("samples", {})
    for name, entry in record["metrics"].items():
        print(f"  {name:<40} {entry['value']:>14.4f} {entry['unit']}")
    for name, value in record.get("detail", {}).items():
        count = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:<40} {value:>14.4f}{count}")
    if "budget" in record:
        print(record["budget"])
    for problem in record["problems"]:
        print(f"  INCORRECT: {problem}")


def single_run(args: argparse.Namespace) -> int:
    record = run_one(args.workload, args.seed, args.scale, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    _record_path(args.workload, args.trace).write_text(json.dumps(record, indent=1))
    print_record(record)
    print(
        json.dumps(
            {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
        )
    )
    return 0 if record["correct"] else 1


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def full_run(args: argparse.Namespace) -> int:
    """Every workload: ``--repeats`` untraced runs and one traced run
    of the same seed, one after another, each in a fresh interpreter.
    The same seed gives every repeat the same operations, so counts
    repeat exactly and the spread between repeats is the machine's."""
    from bench.workloads import WORKLOADS

    result = {
        "environment": {
            "commit": _commit(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "seed": args.seed,
            "repeats": args.repeats,
            "scale": args.scale,
            "seconds": args.seconds,
        },
        "workloads": {},
    }
    failed = []
    for name in WORKLOADS:
        entry = result["workloads"][name] = {"runs": [], "traced": None}
        for trace in [0] * args.repeats + [1]:
            command = [
                sys.executable, "-m", "bench", "--workload", name, "--seed", str(args.seed),
                "--scale", str(args.scale), "--seconds", str(args.seconds),
                "--trace", str(trace),
            ]  # fmt: skip
            code = subprocess.run(command, cwd=ROOT).returncode
            if code != 0:
                failed.append(f"{name} trace={trace} exited {code}")
                continue
            record = json.loads(_record_path(name, trace).read_text())
            if trace:
                entry["traced"] = record
            else:
                entry["runs"].append(record)
    out = Path(args.out) if args.out else OUT_DIR / f"result_seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1))
    print(f"wrote {out}")
    for line in failed:
        print(f"FAILED: {line}")
    return 1 if failed else 0


def main(argv: list[str]) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no engine to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if argv and argv[0] == "compare":
        from bench.compare import main as compare_main

        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink data sizes and fixed operation counts by this factor")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="nominal length of the measured phase: it fixes the operation "
                             "count at this many seconds of the workload's nominal rate")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 = the traced run (per-layer metrics)")
    parser.add_argument("--repeats", type=int, default=1,
                        help="without --workload: untraced runs per workload")
    parser.add_argument("--out", help="without --workload: where to write the result file")
    args = parser.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set and dict order must not differ between runs of one seed.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, "-m", "bench", *argv])
    if args.workload is None:
        return full_run(args)
    from bench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
