"""The wire protocol: binary frames over a byte transport.

Every message travels as one struct-packed frame of
:mod:`repro.codec.frames`: a 12-byte header (length, version, flags,
opcode, correlation id) over the tagged value codec the WAL already
uses.  Responses echo their request's correlation id, which is what
makes client-side pipelining work.

A client opens the connection with the 4-byte ``RPC2`` preamble plus a
``hello`` frame before anything else; the server reads the preamble
and rejects anything else with :class:`ProtocolError`.  A peer that
sends some other framing (say a 4-byte length header and a JSON body)
is dropped at its first four bytes, and a server of some other
framing that reads the preamble as a length header sees a size beyond
``MAX_FRAME_BYTES`` — both directions fail cleanly instead of hanging.

Frames normalize to plain message dicts at this layer: requests are
``{"op": ..., "corr_id": ..., **args}`` and responses are
``{"ok": ..., "corr_id": ..., ...}``, so the session and client code
above never see a header.

Two transports speak it: a TCP socket on localhost and an in-process
loopback built from :func:`socket.socketpair` — same framing, same
code path, no TCP stack in unit tests.
"""

from __future__ import annotations

import socket

from repro.codec.errors import WIRE_ERRORS, error_payload, raise_from_payload
from repro.codec.frames import (
    FLAG_ERROR,
    FLAG_RESPONSE,
    MAGIC,
    MAX_FRAME_BYTES,
    PROTOCOL_V2,
    encode_frame,
    hello_ack_payload,
    hello_payload,
    try_parse_frame,
)
from repro.codec.ops import OP_BY_CODE, OP_BY_NAME, OP_HELLO
from repro.common.errors import ProtocolError

__all__ = [
    "MAX_FRAME_BYTES",
    "WIRE_ERRORS",
    "FrameConn",
    "SocketTransport",
    "error_response",
    "loopback_pair",
    "raise_from_response",
]


def error_response(exc: BaseException) -> dict:
    """The ``{"ok": false, ...}`` response message for ``exc``, with
    the structured ``args`` of :func:`error_payload`."""
    return {"ok": False, **error_payload(exc)}


def raise_from_response(response: dict) -> None:
    """Client side: re-raise the server-reported error, by kind."""
    raise_from_payload(response)


class SocketTransport:
    """Blocking byte transport over one socket (TCP or socketpair)."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._closed = False

    def send_bytes(self, data: bytes) -> None:
        self._sock.sendall(data)

    def recv_exactly(self, count: int) -> bytes:
        """Read exactly ``count`` bytes; empty bytes on clean EOF at a
        frame boundary, ProtocolError on EOF mid-frame."""
        chunks: list[bytes] = []
        remaining = count
        while remaining:
            chunk = self._sock.recv(min(remaining, 65536))
            if not chunk:
                if remaining == count:
                    return b""
                raise ProtocolError(
                    f"connection closed mid-frame ({count - remaining}/{count} bytes)"
                )
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def recv_some(self, limit: int = 65536) -> bytes:
        """One blocking read of up to ``limit`` bytes (b"" on EOF)."""
        return self._sock.recv(limit)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def loopback_pair() -> tuple[SocketTransport, SocketTransport]:
    """An in-process (server, client) transport pair — the loopback
    tests and the load generator use instead of real TCP."""
    server_sock, client_sock = socket.socketpair()
    return SocketTransport(server_sock), SocketTransport(client_sock)


#: Message keys that are framing metadata, not op arguments.
_META_KEYS = frozenset(("op", "corr_id"))


def request_frame(op: str, corr_id: int, args: dict) -> bytes:
    """The frame of one request: ``op``'s opcode over ``args``."""
    spec = OP_BY_NAME.get(op)
    if spec is None:
        raise ProtocolError(f"unknown op {op!r}")
    return encode_frame(spec.code, corr_id, args)


class FrameConn:
    """Message-level reader/writer over a transport.

    A server-side conn reads the connection preamble and ``hello``
    frame inside the first :meth:`read_message`.  A client-side conn
    calls :meth:`start_client` before its first request.
    """

    def __init__(self, transport: SocketTransport) -> None:
        self.transport = transport
        self._negotiated = False
        #: Receive buffer and the offset of its first unparsed byte: the
        #: last ``recv`` chunk itself, or a ``bytearray`` collecting the
        #: pieces of a frame that arrived split.
        self._buf: bytes | bytearray = b""
        self._off = 0
        #: Client side: hello ack not yet consumed.
        self._awaiting_ack = False

    # -- negotiation ---------------------------------------------------------

    def start_client(self, client: str = "repro-client") -> None:
        """Open the connection as a client: send the ``RPC2`` preamble
        and the hello frame now; consume the ack lazily just before the
        first response read (one round trip saved)."""
        self._negotiated = True
        self._awaiting_ack = True
        hello = encode_frame(OP_HELLO.code, 0, hello_payload(client))
        self.transport.send_bytes(MAGIC + hello)

    def _negotiate_server(self) -> bool:
        """Read the preamble and hello frame, send the ack; False on a
        clean EOF before the preamble."""
        self._negotiated = True
        preamble = self.transport.recv_exactly(len(MAGIC))
        if not preamble:
            return False
        if preamble != MAGIC:
            raise ProtocolError(
                f"connection preamble {preamble!r} is not {MAGIC!r}"
            )
        frame = self._read_frame()
        if frame is None:
            raise ProtocolError("connection closed before hello frame")
        if frame.opcode != OP_HELLO.code or frame.is_response:
            raise ProtocolError(
                f"expected hello frame, got opcode {frame.opcode}"
            )
        versions = (
            frame.payload.get("versions")
            if isinstance(frame.payload, dict)
            else None
        )
        if not isinstance(versions, list) or PROTOCOL_V2 not in versions:
            raise ProtocolError(f"client offered no supported version: {versions!r}")
        ack = encode_frame(
            OP_HELLO.code,
            frame.corr_id,
            hello_ack_payload(),
            flags=FLAG_RESPONSE,
        )
        self.transport.send_bytes(ack)
        return True

    def _consume_ack(self) -> None:
        self._awaiting_ack = False
        frame = self._read_frame()
        if frame is None:
            raise ProtocolError("connection closed before hello ack")
        if frame.is_error:
            raise_from_payload(frame.payload if isinstance(frame.payload, dict) else {})
        if frame.opcode != OP_HELLO.code or not frame.is_response:
            raise ProtocolError(
                f"expected hello ack, got opcode {frame.opcode}"
            )

    # -- frame buffer -----------------------------------------------------------

    def _read_frame(self):
        """Next complete frame, reading as needed; None on clean EOF."""
        while True:
            frame = self._received_frame()
            if frame is not None:
                return frame
            chunk = self.transport.recv_some()
            if not chunk:
                if self._off >= len(self._buf):
                    return None
                raise ProtocolError("connection closed mid-frame")
            buf, off = self._buf, self._off
            if off >= len(buf):
                # No partial frame buffered: parse the chunk itself.
                self._buf = chunk
            else:
                if off or type(buf) is bytes:
                    buf = self._buf = bytearray(memoryview(buf)[off:])
                buf += chunk
            self._off = 0

    def _received_frame(self):
        """The next frame already received in full, or None; never
        reads."""
        if self._off >= len(self._buf):
            return None
        parsed = try_parse_frame(self._buf, self._off)
        if parsed is None:
            return None
        frame, self._off = parsed
        if self._off >= len(self._buf):
            # Every frame in it is parsed: drop the chunk now.  ``recv``
            # shrinks a 64 KiB allocation to fit, and a chunk kept until
            # the next read pins that block, so the next read's 64 KiB
            # comes from fresh heap.
            self._buf = b""
            self._off = 0
        return frame

    def _frame_to_request(self, frame) -> dict:
        spec = OP_BY_CODE.get(frame.opcode)
        if spec is None:
            raise ProtocolError(f"unknown opcode {frame.opcode}")
        # The decoded body is this request's own dict: it becomes the
        # message.
        message = frame.payload if isinstance(frame.payload, dict) else {}
        message["op"] = spec.name
        message["corr_id"] = frame.corr_id
        return message

    def _frame_to_response(self, frame) -> dict:
        payload = frame.payload if isinstance(frame.payload, dict) else {}
        if frame.is_error:
            return {"ok": False, "corr_id": frame.corr_id, **payload}
        return {
            "ok": True,
            "corr_id": frame.corr_id,
            "result": payload.get("result"),
        }

    def _frame_to_message(self, frame) -> dict:
        if frame.is_response:
            return self._frame_to_response(frame)
        return self._frame_to_request(frame)

    # -- writing ---------------------------------------------------------------

    def encode(self, message: dict) -> bytes:
        """Serialize one message into its frame."""
        op = message.get("op")
        if op is not None:
            args = {k: v for k, v in message.items() if k not in _META_KEYS}
            return request_frame(op, message.get("corr_id", 0), args)
        corr_id = message.get("corr_id", 0)
        flags = FLAG_RESPONSE
        if message.get("ok"):
            payload = {"result": message.get("result")}
        else:
            flags |= FLAG_ERROR
            payload = {
                k: v
                for k, v in message.items()
                if k not in ("ok", "corr_id")
            }
        return encode_frame(0, corr_id, payload, flags=flags)

    def write_message(self, message: dict) -> None:
        self.transport.send_bytes(self.encode(message))

    def write_request(self, op: str, corr_id: int, args: dict) -> None:
        """Send one request, its frame encoded straight from ``args``."""
        self.transport.send_bytes(request_frame(op, corr_id, args))

    def write_messages(self, messages: list[dict]) -> None:
        """Send many messages in one write (a batch's responses)."""
        if not messages:
            return
        self.transport.send_bytes(b"".join(self.encode(m) for m in messages))

    # -- reading ---------------------------------------------------------------

    def read_message(self) -> dict | None:
        """Next message, or None on clean EOF."""
        if not self._negotiated and not self._negotiate_server():
            return None
        if self._awaiting_ack:
            self._consume_ack()
        frame = self._read_frame()
        return None if frame is None else self._frame_to_message(frame)

    def read_message_batch(self, limit: int) -> list[dict] | None:
        """One blocking message plus every further message already
        received in full, up to ``limit`` total; None on clean EOF.
        A frame still in flight waits for the next batch: a pipelining
        client's burst arrives in the same read as its first frame."""
        first = self.read_message()
        if first is None:
            return None
        batch = [first]
        while len(batch) < limit:
            frame = self._received_frame()
            if frame is None:
                break
            batch.append(self._frame_to_message(frame))
        return batch

    def close(self) -> None:
        self.transport.close()
