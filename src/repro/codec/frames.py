"""Wire protocol v2: struct-packed binary frames over the value codec.

One frame is a fixed 12-byte header followed by a codec-encoded body::

    offset  size  field
    0       4     body length (u32, excludes the header)
    4       1     protocol version (2)
    5       1     flags (bit 0 = response, bit 1 = error)
    6       2     opcode (u16, see repro.codec.ops)
    8       4     correlation id (u32)

The body of a request frame is the op's argument dict; the body of a
response frame is ``{"result": ...}`` on success or an error payload
(:func:`repro.codec.errors.error_payload`) when the error flag is set.
Responses echo the correlation id of their request, which is what makes
client-side pipelining possible: many requests go out before the first
response is read, and each response finds its waiter by id.

Connection preamble: a client opens the connection with the 4-byte
:data:`MAGIC` preamble followed by a ``hello`` frame, and a server
refuses a connection whose first 4 bytes are anything else.  Read as a
length header, the preamble's u32 value exceeds ``MAX_FRAME_BYTES``,
so a peer speaking a length-prefixed framing rejects it as oversize
instead of waiting for a body that never comes.

Every malformed input raises
:class:`~repro.common.errors.ProtocolError` — bad version byte,
oversize length, garbage body, trailing bytes after the body decode —
never hangs, never leaks a codec-level exception.
"""

from __future__ import annotations

import struct
from typing import Any, NamedTuple

from repro.common.errors import ProtocolError, WALError
from repro.codec.values import decode_value, encode_value

MAX_FRAME_BYTES = 4 << 20
"""Largest frame body accepted."""

PROTOCOL_V2 = 2

MAGIC = b"RPC2"
"""Connection preamble announcing protocol v2.  As a big-endian u32
(0x52504332) it is far beyond ``MAX_FRAME_BYTES``, so a reader that
receives it as a length header rejects the frame instead of waiting
for gigabytes that never come."""

assert int.from_bytes(MAGIC, "big") > MAX_FRAME_BYTES

HEADER = struct.Struct(">IBBHI")
"""``(body_len, version, flags, opcode, corr_id)``."""

HEADER_SIZE = HEADER.size  # 12

FLAG_RESPONSE = 0x01
FLAG_ERROR = 0x02
_KNOWN_FLAGS = FLAG_RESPONSE | FLAG_ERROR


class Frame(NamedTuple):
    """One decoded v2 frame."""

    opcode: int
    flags: int
    corr_id: int
    payload: Any

    @property
    def is_response(self) -> bool:
        return bool(self.flags & FLAG_RESPONSE)

    @property
    def is_error(self) -> bool:
        return bool(self.flags & FLAG_ERROR)


def encode_frame(
    opcode: int, corr_id: int, payload: Any, flags: int = 0
) -> bytes:
    """Serialize one frame (header + codec body)."""
    try:
        body = encode_value(payload)
    except WALError as exc:
        raise ProtocolError(f"frame payload is not codec-encodable: {exc}") from exc
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}"
        )
    return HEADER.pack(len(body), PROTOCOL_V2, flags, opcode, corr_id & 0xFFFFFFFF) + body


def response_frame(corr_id: int, result: Any, opcode: int = 0) -> bytes:
    """A success response carrying ``result``."""
    return encode_frame(opcode, corr_id, {"result": result}, flags=FLAG_RESPONSE)


def error_frame(corr_id: int, payload: dict, opcode: int = 0) -> bytes:
    """An error response carrying a :mod:`repro.codec.errors` payload."""
    return encode_frame(
        opcode, corr_id, payload, flags=FLAG_RESPONSE | FLAG_ERROR
    )


def check_header(
    length: int, version: int, flags: int
) -> None:
    """Validate decoded header fields; raise ProtocolError on garbage."""
    if version != PROTOCOL_V2:
        raise ProtocolError(
            f"unsupported protocol version {version} (want {PROTOCOL_V2})"
        )
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    if flags & ~_KNOWN_FLAGS:
        raise ProtocolError(f"unknown frame flags 0x{flags:02x}")


def try_parse_frame(buf, offset: int = 0) -> tuple[Frame, int] | None:
    """Parse one complete frame from ``buf`` starting at ``offset``.

    Returns ``(frame, next_offset)``, or ``None`` if the buffer holds
    only part of a frame (read more bytes and retry).  ``buf`` may be
    ``bytes``, ``bytearray``, or ``memoryview``.  The body is decoded
    from ``bytes`` — a slice of a ``bytes`` buffer, one copy out of any
    other — which the codec's dict-key memo needs and which decodes
    faster than a view.  Malformed headers or bodies raise
    :class:`ProtocolError`.
    """
    available = len(buf) - offset
    if available < HEADER_SIZE:
        return None
    length, version, flags, opcode, corr_id = HEADER.unpack_from(buf, offset)
    check_header(length, version, flags)
    start = offset + HEADER_SIZE
    if available - HEADER_SIZE < length:
        return None
    end = start + length
    if not length:
        body = b"N"
    elif type(buf) is bytes:
        body = buf[start:end]
    else:
        body = bytes(memoryview(buf)[start:end])
    try:
        payload, consumed = decode_value(body, 0)
    except WALError as exc:
        raise ProtocolError(f"frame body failed to decode: {exc}") from exc
    if length and consumed != length:
        raise ProtocolError(
            f"frame body has {length - consumed} trailing bytes after decode"
        )
    return Frame(opcode, flags, corr_id, payload), end


def hello_payload(client: str = "repro") -> dict:
    """The body of the client's ``hello`` frame."""
    return {"versions": [PROTOCOL_V2], "client": client}


def hello_ack_payload(server: str = "repro") -> dict:
    """The body of the server's ``hello`` acknowledgement."""
    return {"result": {"version": PROTOCOL_V2, "server": server}}
