"""Frame reassembly: frames parsed from the chunks ``recv`` returns.

A connection parses each received chunk in place when no partial frame
is buffered, and collects the pieces of a frame that arrives split.
However the byte stream is cut, the same messages come out, and a
malformed frame raises the same :class:`ProtocolError` wherever it
lands in a chunk.
"""

from __future__ import annotations

import pytest

from repro.codec.frames import HEADER, MAGIC, MAX_FRAME_BYTES, PROTOCOL_V2, encode_frame
from repro.codec.ops import OP_BY_NAME, OP_HELLO
from repro.common.errors import ProtocolError
from repro.server.protocol import FrameConn

#: The three requests of the test stream, as the server reads them.
MESSAGES = [
    {"table": "t", "row": {"id": 7, "val": "seven"}, "op": "insert", "corr_id": 1},
    {
        "table": "t",
        "index": "by_id",
        "key": 7,
        "isolation": "rr",
        "op": "fetch",
        "corr_id": 2,
    },
    {"op": "ping", "corr_id": 3},
]


def _frame(message: dict) -> bytes:
    args = {k: v for k, v in message.items() if k not in ("op", "corr_id")}
    return encode_frame(OP_BY_NAME[message["op"]].code, message["corr_id"], args)


HELLO = MAGIC + encode_frame(OP_HELLO.code, 0, {"versions": [PROTOCOL_V2]})
STREAM = b"".join(_frame(m) for m in MESSAGES)


class ScriptedTransport:
    """A transport whose ``recv_some`` returns the scripted chunks in
    order, then EOF."""

    def __init__(self, chunks: list[bytes]) -> None:
        self.chunks = [bytes(c) for c in chunks if c]
        self.sent: list[bytes] = []

    def recv_some(self, limit: int = 65536) -> bytes:
        return self.chunks.pop(0) if self.chunks else b""

    def recv_exactly(self, count: int) -> bytes:
        data = b""
        while len(data) < count and self.chunks:
            chunk = self.chunks.pop(0)
            take = count - len(data)
            data += chunk[:take]
            if chunk[take:]:
                self.chunks.insert(0, chunk[take:])
        return data

    def send_bytes(self, data: bytes) -> None:
        self.sent.append(data)

    def close(self) -> None:
        pass


def _server_conn(*chunks: bytes) -> FrameConn:
    """A server-side conn whose peer sends the hello, then ``chunks``."""
    return FrameConn(ScriptedTransport([HELLO, *chunks]))


def _read_all(conn: FrameConn) -> list[dict]:
    out = []
    while (message := conn.read_message()) is not None:
        out.append(message)
    return out


class TestChunkPath:
    def test_three_frames_split_at_every_offset(self):
        for cut in range(len(STREAM) + 1):
            conn = _server_conn(STREAM[:cut], STREAM[cut:])
            assert _read_all(conn) == MESSAGES, cut

    def test_three_frames_one_byte_at_a_time(self):
        conn = _server_conn(*(STREAM[i : i + 1] for i in range(len(STREAM))))
        assert _read_all(conn) == MESSAGES

    def test_split_three_ways_at_every_pair_of_offsets_in_the_second_frame(self):
        first = len(_frame(MESSAGES[0]))
        second_end = first + len(_frame(MESSAGES[1]))
        for a in range(first, second_end):
            for b in range(a, second_end + 1):
                conn = _server_conn(STREAM[:a], STREAM[a:b], STREAM[b:])
                assert _read_all(conn) == MESSAGES, (a, b)

    def test_several_frames_in_one_chunk_are_one_batch(self):
        conn = _server_conn(STREAM)
        assert conn.read_message_batch(64) == MESSAGES
        assert conn.read_message_batch(64) is None

    def test_batch_stops_at_the_limit(self):
        conn = _server_conn(STREAM)
        assert conn.read_message_batch(2) == MESSAGES[:2]
        assert conn.read_message_batch(2) == MESSAGES[2:]

    def test_frame_then_partial_frame(self):
        first = len(_frame(MESSAGES[0]))
        cut = first + 5
        conn = _server_conn(STREAM[:cut], STREAM[cut:])
        # The batch takes the whole frame and leaves the partial one
        # for the next read instead of waiting for its rest.
        assert conn.read_message_batch(64) == MESSAGES[:1]
        assert conn.transport.chunks == [STREAM[cut:]]
        assert conn.read_message_batch(64) == MESSAGES[1:]

    def test_eof_inside_a_split_frame_raises(self):
        conn = _server_conn(STREAM[:5], STREAM[5:20])
        with pytest.raises(ProtocolError, match="mid-frame"):
            _read_all(conn)


def _header(length: int, version: int = PROTOCOL_V2) -> bytes:
    return HEADER.pack(length, version, 0, OP_BY_NAME["ping"].code, 9)


#: (bytes after one good frame, the error message the parse raises).
BAD_FRAMES = [
    (_header(0, version=7), "unsupported protocol version 7"),
    (_header(MAX_FRAME_BYTES + 1), f"exceeds {MAX_FRAME_BYTES}"),
    (_header(5) + b"N" + b"junk", "4 trailing bytes after decode"),
]


class TestMalformedFrames:
    @pytest.mark.parametrize("bad, message", BAD_FRAMES)
    def test_same_error_in_the_chunk_or_split_across_chunks(self, bad, message):
        good = _frame(MESSAGES[2])
        raw = good + bad
        for cut in (len(raw), len(good), len(good) + 3, len(raw) - 1):
            conn = _server_conn(raw[:cut], raw[cut:])
            assert conn.read_message() == MESSAGES[2]
            with pytest.raises(ProtocolError, match=message):
                conn.read_message()
