"""Self-tests of the benchmark (``python -m pytest bench/tests``).

Outside tier-1's ``testpaths``.  Runs go through ``python -m bench`` in
a fresh interpreter, as the driver does.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

SMOKE_SCALE = 0.05


def run_bench(workload: str, trace: int, seed: int = 1) -> tuple[dict, dict]:
    """One ``--scale 0.05`` run: (the driver's last-line object, the
    full record the run wrote under ``bench/out``)."""
    done = subprocess.run(
        [
            sys.executable, "-m", "bench", "--workload", workload, "--seed", str(seed),
            "--scale", str(SMOKE_SCALE), "--trace", str(trace),
        ],  # fmt: skip
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / "bench" / "out" / f"last_{workload}_trace{trace}.json").read_text())
    return last, record


@pytest.fixture(scope="session")
def smoke_runs() -> dict:
    """Every workload, untraced and traced, once per test session."""
    from bench.workloads import WORKLOADS

    return {(name, trace): run_bench(name, trace) for name in WORKLOADS for trace in (0, 1)}
