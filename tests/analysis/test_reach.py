"""The reach census: a run records the functions it entered, runs add
up in one hits file, and the report lists only what no run called.

The collector installs its own trace hook, so it runs in a subprocess
here; inside the test process it would replace the hook of any census
being taken of the test suite itself."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])


def reach(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", "reach", *args],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_runs_add_up_and_the_report_lists_the_rest(tmp_path):
    (tmp_path / "keys.py").write_text(
        "from repro.common.keys import encode_key\nencode_key(7)\n"
    )
    (tmp_path / "rid.py").write_text("from repro.common.rid import RID\nRID(1, 2)\n")
    for script in ("keys.py", "rid.py"):
        assert reach("run", "hits.json", script, cwd=tmp_path).returncode == 0
    lines = reach("report", "hits.json", cwd=tmp_path).stdout.splitlines()
    unreached = {line.split()[1] for line in lines[:-1]}
    assert "encode_key" not in unreached
    assert "decode_str_key" in unreached
    assert "Database.crash" in unreached
    assert lines[-1].startswith(f"{len(lines) - 1} of ")


def test_run_passes_the_exit_status_through(tmp_path):
    (tmp_path / "fails.py").write_text("raise SystemExit(3)\n")
    assert reach("run", "hits.json", "fails.py", cwd=tmp_path).returncode == 3
    assert reach("report", cwd=tmp_path).returncode == 2
