"""Structured error payload round-trips (:mod:`repro.codec.errors`).

Binary frames must carry an exception's structured constructor args
across the wire (a ``DeadlockError`` keeps its victim and cycle, a
``UniqueKeyViolationError`` its key bytes).
"""

from __future__ import annotations

import pytest

from repro.codec.errors import (
    WIRE_ERRORS,
    error_payload,
    raise_from_payload,
    rebuild_error,
)
from repro.codec.values import decode_value, encode_value
from repro.common.errors import (
    DeadlockError,
    KeyNotFoundError,
    LockTimeoutError,
    ProtocolError,
    ReproError,
    ServerError,
    SimulatedCrash,
    UniqueKeyViolationError,
)


def _roundtrip(exc: BaseException) -> Exception:
    # Structured args must survive the codec, not just Python dicts.
    payload, _ = decode_value(encode_value(error_payload(exc)))
    return rebuild_error(payload)


class TestStructuredArgs:
    def test_deadlock_keeps_victim_and_cycle(self):
        original = DeadlockError(7, (7, 12, 9))
        rebuilt = _roundtrip(original)
        assert isinstance(rebuilt, DeadlockError)
        assert rebuilt.txn_id == 7
        assert rebuilt.cycle == (7, 12, 9)

    def test_unique_key_keeps_bytes(self):
        original = UniqueKeyViolationError(b"\x80\x00\x00\x07")
        rebuilt = _roundtrip(original)
        assert isinstance(rebuilt, UniqueKeyViolationError)
        assert rebuilt.key_value == b"\x80\x00\x00\x07"

    def test_unique_key_str_value_survives(self):
        # Tests hand-build these with str keys; the codec must not
        # coerce or crash.
        rebuilt = _roundtrip(UniqueKeyViolationError("k1"))
        assert isinstance(rebuilt, UniqueKeyViolationError)
        assert rebuilt.key_value == "k1"

    def test_simulated_crash_keeps_failpoint(self):
        rebuilt = _roundtrip(SimulatedCrash("wal.force"))
        assert isinstance(rebuilt, SimulatedCrash)
        assert rebuilt.failpoint == "wal.force"


class TestPlainErrors:
    def test_message_only_class_roundtrips(self):
        rebuilt = _roundtrip(LockTimeoutError("lock wait timed out"))
        assert isinstance(rebuilt, LockTimeoutError)
        assert "timed out" in str(rebuilt)

    def test_unknown_kind_becomes_server_error(self):
        rebuilt = rebuild_error({"error": "NoSuchClass", "message": "boom"})
        assert isinstance(rebuilt, ServerError)
        assert rebuilt.kind == "NoSuchClass"
        assert str(rebuilt) == "boom"

    def test_raise_from_payload_raises(self):
        with pytest.raises(KeyNotFoundError):
            raise_from_payload(error_payload(KeyNotFoundError("missing")))

    def test_corrupt_args_fall_back_to_bare_rebuild(self):
        rebuilt = rebuild_error(
            {"error": "DeadlockError", "message": "m", "args": {"bogus": 1}}
        )
        assert isinstance(rebuilt, DeadlockError)


class TestRegistry:
    def test_registry_covers_library_errors(self):
        for name in (
            "DeadlockError",
            "LockTimeoutError",
            "UniqueKeyViolationError",
            "KeyNotFoundError",
            "SessionStateError",
            "ServerShutdownError",
            "ProtocolError",
        ):
            assert name in WIRE_ERRORS

    def test_registry_classes_are_repro_errors(self):
        assert all(
            issubclass(cls, ReproError) for cls in WIRE_ERRORS.values()
        )

    def test_protocol_error_roundtrips(self):
        rebuilt = _roundtrip(ProtocolError("bad frame"))
        assert isinstance(rebuilt, ProtocolError)
