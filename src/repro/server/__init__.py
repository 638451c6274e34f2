"""Embedded multi-threaded database server.

The serving surface the ROADMAP's north star asks for: many concurrent
client sessions over a binary framed wire protocol (TCP on
localhost, plus an in-process loopback transport for tests), a
:class:`~repro.server.session.Session` owning transaction lifecycle,
an executor pool with admission control, and graceful shutdown that
drains in-flight transactions and takes a final checkpoint.  The WAL
coalesces the commit forces of concurrent sessions: the commits queued
behind one log write share the next, so N concurrent commits cost
about one synchronous log I/O instead of N.
"""

from repro.server.client import DatabaseClient
from repro.server.protocol import FrameConn
from repro.server.server import DatabaseServer, ServerConfig

__all__ = [
    "DatabaseClient",
    "DatabaseServer",
    "FrameConn",
    "ServerConfig",
]
