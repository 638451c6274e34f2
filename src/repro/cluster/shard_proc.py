"""Standalone shard process: ``python -m repro.cluster.shard_proc``.

The E18 benchmark (and anyone wanting real multi-core scaling) runs
each shard in its own OS process so the shards' Python interpreters
don't share one GIL.  The process starts an in-memory
:class:`~repro.db.Database` behind a TCP
:class:`~repro.server.server.DatabaseServer`, prints a single
``READY <port>`` line on stdout, then serves until stdin reaches EOF
(the parent closing the pipe is the shutdown signal — robust even if
the parent dies without cleanup).

Usage::

    python -m repro.cluster.shard_proc [--port 0] [--workers 4]
"""

from __future__ import annotations

import argparse
import sys

from repro.common.config import DatabaseConfig
from repro.db import Database
from repro.server.server import DatabaseServer, ServerConfig


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--port", type=int, default=0, help="TCP port (0 = ephemeral)")
    parser.add_argument("--workers", type=int, default=4, help="executor pool size")
    parser.add_argument(
        "--tables",
        default="t:by_id:id",
        help="comma-separated table:index:column[:unique] triples to pre-create",
    )
    args = parser.parse_args(argv)

    db = Database(DatabaseConfig(lock_timeout_seconds=2.0))
    for spec in filter(None, args.tables.split(",")):
        parts = spec.split(":")
        if len(parts) < 3:
            parser.error(f"bad table spec {spec!r} (want table:index:column)")
        table, index, column = parts[:3]
        unique = len(parts) > 3 and parts[3] == "unique"
        db.create_table(table)
        db.create_index(table, index, column=column, unique=unique)

    server = DatabaseServer(
        db,
        ServerConfig(
            port=args.port,
            workers=args.workers,
            queue_depth=args.workers * 8,
            request_timeout_seconds=30.0,
            drain_timeout_seconds=5.0,
        ),
    ).start(listen=True)
    print(f"READY {server.address[1]}", flush=True)

    # Serve until the parent closes our stdin.
    sys.stdin.read()
    server.shutdown(drain=False)
    db.close()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
