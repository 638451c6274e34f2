"""Shared helpers for the experiment benchmarks.

Every experiment writes the table/series it regenerates to
``benchmarks/results/<exp>.txt`` (so the artifacts survive the run and
EXPERIMENTS.md can reference them) and asserts the paper's *shape*
claims — who wins, in which direction — rather than absolute numbers.
A wall-clock column changes on every run, so it goes to a git-ignored
``<exp>.clocks.txt`` beside the table and the committed table keeps
only what the same code reproduces byte for byte.
"""

from __future__ import annotations

from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"


def write_result(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[written to {path}]")
