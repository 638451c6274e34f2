"""Wire protocol: framing, error round-trips, transport edge cases."""

from __future__ import annotations

import threading

import pytest

from repro.codec.frames import FLAG_RESPONSE, HEADER, PROTOCOL_V2
from repro.common.errors import (
    DeadlockError,
    KeyNotFoundError,
    ProtocolError,
    ServerError,
    ServerOverloadedError,
    UniqueKeyViolationError,
)
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    FrameConn,
    error_response,
    loopback_pair,
    raise_from_response,
)


def _negotiated_pair() -> tuple[FrameConn, FrameConn]:
    """A (server, client) conn pair past the preamble, hello and ack."""
    server_end, client_end = loopback_pair()
    server, client = FrameConn(server_end), FrameConn(client_end)
    client.start_client()
    client.write_message({"op": "ping", "corr_id": 1})
    assert server.read_message() == {"op": "ping", "corr_id": 1}
    server.write_message({"ok": True, "corr_id": 1, "result": "pong"})
    assert client.read_message() == {"ok": True, "corr_id": 1, "result": "pong"}
    return server, client


def _response_header(length: int) -> bytes:
    return HEADER.pack(length, PROTOCOL_V2, FLAG_RESPONSE, 0, 2)


class TestFraming:
    def test_round_trip(self):
        server, client = _negotiated_pair()
        message = {
            "op": "insert",
            "corr_id": 7,
            "table": "t",
            "row": {"id": 7, "pad": "x" * 100, "raw": b"\x00\xff"},
        }
        client.write_message(message)
        assert server.read_message() == message
        server.write_message({"ok": True, "corr_id": 7, "result": None})
        assert client.read_message() == {"ok": True, "corr_id": 7, "result": None}
        server.close()
        client.close()

    def test_eof_at_boundary_is_none(self):
        server, client = _negotiated_pair()
        server.close()
        assert client.read_message() is None
        client.close()

    def test_eof_mid_frame_raises(self):
        server, client = _negotiated_pair()
        # A header promising 100 bytes, then the line dies.
        server.transport.send_bytes(_response_header(100) + b"partial")
        server.close()
        with pytest.raises(ProtocolError, match="mid-frame"):
            client.read_message()
        client.close()

    def test_garbage_body_raises(self):
        server, client = _negotiated_pair()
        server.transport.send_bytes(_response_header(3) + b"zzz")
        with pytest.raises(ProtocolError, match="failed to decode"):
            client.read_message()
        server.close()
        client.close()

    def test_oversized_header_rejected_before_reading(self):
        server, client = _negotiated_pair()
        # Only the header is sent: a reader that waited for the body
        # would hang here instead of raising.
        server.transport.send_bytes(_response_header(MAX_FRAME_BYTES + 1))
        with pytest.raises(ProtocolError, match="exceeds"):
            client.read_message()
        server.close()
        client.close()

    def test_unserializable_message_rejected(self):
        server, client = _negotiated_pair()
        with pytest.raises(ProtocolError, match="not codec-encodable"):
            client.write_message({"op": "ping", "corr_id": 2, "x": object()})
        server.close()
        client.close()

    def test_interleaved_messages_keep_order(self):
        server, client = _negotiated_pair()

        def writer():
            for i in range(50):
                server.write_message({"ok": True, "corr_id": i, "result": i})

        thread = threading.Thread(target=writer)
        thread.start()
        got = [client.read_message()["result"] for _ in range(50)]
        thread.join(5.0)
        assert got == list(range(50))
        server.close()
        client.close()


class TestErrorRoundTrip:
    def test_simple_error_reraises_as_itself(self):
        response = error_response(UniqueKeyViolationError("dup key 7"))
        with pytest.raises(UniqueKeyViolationError, match="dup key 7"):
            raise_from_response(response)

    def test_structured_ctor_error_rebuilt_bare(self):
        """DeadlockError takes a cycle argument that doesn't cross the
        wire; the client must still get a DeadlockError."""
        response = {"ok": False, "error": "DeadlockError", "message": "victim: 3"}
        with pytest.raises(DeadlockError, match="victim: 3"):
            raise_from_response(response)

    def test_unknown_kind_falls_back_to_server_error(self):
        response = {"ok": False, "error": "NoSuchError", "message": "?"}
        with pytest.raises(ServerError) as info:
            raise_from_response(response)
        assert info.value.kind == "NoSuchError"

    def test_server_error_subclass_keeps_kind(self):
        response = error_response(ServerOverloadedError("queue full"))
        with pytest.raises(ServerOverloadedError) as info:
            raise_from_response(response)
        assert info.value.kind == "ServerOverloadedError"

    def test_key_not_found_round_trip(self):
        with pytest.raises(KeyNotFoundError):
            raise_from_response(error_response(KeyNotFoundError("key 9")))
