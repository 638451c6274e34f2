"""Maintainer tooling: structural and log dumps, stats summaries."""

from repro.tools.inspect import (
    dump_archive,
    dump_log,
    dump_transaction,
    dump_tree,
    summarize_stats,
)

__all__ = [
    "dump_archive",
    "dump_log",
    "dump_transaction",
    "dump_tree",
    "summarize_stats",
]
