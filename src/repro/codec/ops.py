"""The typed op registry: one place that knows every wire operation.

Each op is one :class:`OpSpec`: its name, its stable u16 opcode (the
code the frame header carries), the
argument names its request body may carry, which server-side handler
method runs it, and how the server schedules it.  Client stubs, server
dispatch, the cluster router, and the docs table all read this registry
— adding an op is one registration here plus its handler method,
instead of parallel edits in four files.

Opcodes are append-only: codes are part of the wire format and must
never be renumbered.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class OpSpec:
    """One wire operation."""

    name: str
    code: int
    args: tuple[str, ...] = ()
    """Argument names the request body may carry (documentation and
    stub generation; the server reads what it needs)."""
    direct: bool = False
    """Run on the connection thread instead of the worker pool
    (long-polling replication ops must not occupy a worker slot)."""
    batchable: bool = True
    """May execute inside a server-side request batch.  Direct ops and
    ``close`` break a batch: they change connection state or block."""
    handler: str = ""
    """Session method name; defaults to ``_op_<name>``."""

    def __post_init__(self) -> None:
        if not self.handler:
            object.__setattr__(self, "handler", f"_op_{self.name}")


def _direct(name: str, code: int, args: tuple[str, ...] = ()) -> OpSpec:
    return OpSpec(name, code, args, direct=True, batchable=False)


#: The registry.  Codes are wire format — append, never renumber.
OPS: tuple[OpSpec, ...] = (
    OpSpec("hello", 0, ("versions", "client"), direct=True, batchable=False),
    OpSpec("ping", 1),
    OpSpec("begin", 2),
    OpSpec("begin_snapshot", 3),
    OpSpec("commit", 4),
    OpSpec("rollback", 5),
    OpSpec("savepoint", 6, ("name",)),
    OpSpec("rollback_to_savepoint", 7, ("name",)),
    OpSpec("insert", 8, ("table", "row")),
    OpSpec("fetch", 9, ("table", "index", "key", "isolation")),
    OpSpec("fetch_prefix", 10, ("table", "index", "prefix")),
    OpSpec("delete", 11, ("table", "index", "key")),
    OpSpec(
        "scan",
        12,
        (
            "table",
            "index",
            "low",
            "high",
            "low_comparison",
            "high_comparison",
            "limit",
            "isolation",
        ),
    ),
    OpSpec("create_table", 13, ("name",)),
    OpSpec("create_index", 14, ("table", "name", "column", "unique")),
    OpSpec("stats", 15, ("prefix",)),
    OpSpec("close", 16, batchable=False),
    OpSpec("prepare", 17, ("gid",)),
    OpSpec("decide", 18, ("gid", "decision")),
    OpSpec("cluster_indoubt", 19),
    _direct("status", 20),
    _direct("repl_handshake", 21, ("name",)),
    _direct("repl_snapshot", 22),
    _direct("repl_poll", 23, ("name", "from_lsn", "max_bytes", "wait_seconds")),
    _direct("repl_ack", 24, ("name", "lsn")),
    _direct("repl_status", 25),
)

OP_BY_NAME: dict[str, OpSpec] = {spec.name: spec for spec in OPS}
OP_BY_CODE: dict[int, OpSpec] = {spec.code: spec for spec in OPS}

assert len(OP_BY_NAME) == len(OPS), "duplicate op name"
assert len(OP_BY_CODE) == len(OPS), "duplicate opcode"

OP_HELLO = OP_BY_NAME["hello"]
