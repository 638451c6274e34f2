"""CLI entry point: ``python -m repro.analysis <lint|walcheck|reach> ...``."""

from __future__ import annotations

import importlib
import sys

COMMANDS = ("lint", "walcheck", "reach")


def main(argv: list[str]) -> int:
    if not argv or argv[0] not in COMMANDS:
        print("usage: python -m repro.analysis {lint,walcheck,reach} ...")
        return 2
    return importlib.import_module(f"repro.analysis.{argv[0]}").main(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
