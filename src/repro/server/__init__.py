"""Embedded multi-threaded database server.

The serving surface the ROADMAP's north star asks for: many concurrent
client sessions over a binary framed wire protocol (TCP on
localhost, plus an in-process loopback transport for tests), a
:class:`~repro.server.session.Session` owning transaction lifecycle,
an executor pool with admission control, and graceful shutdown that
drains in-flight transactions and takes a final checkpoint.  Pairs
with group commit in the WAL (``DatabaseConfig(group_commit=True)``)
so N concurrent commits cost ~1 synchronous log I/O instead of N.
"""

from repro.server.client import DatabaseClient, RemoteTransaction
from repro.server.protocol import (
    FrameConn,
    MAX_FRAME_BYTES,
    SocketTransport,
    loopback_pair,
)
from repro.server.server import DatabaseServer, ServerConfig
from repro.server.session import Session

__all__ = [
    "DatabaseClient",
    "DatabaseServer",
    "FrameConn",
    "MAX_FRAME_BYTES",
    "RemoteTransaction",
    "ServerConfig",
    "Session",
    "SocketTransport",
    "loopback_pair",
]
