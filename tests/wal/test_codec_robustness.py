"""Codec robustness: malformed input must raise WALError, never a raw
struct/unicode/index error (corrupted media surfaces as a clean,
catchable failure)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.codec.values import decode_value, encode_value
from repro.common.errors import WALError
from repro.common.rid import RID, IndexKey


class TestTruncation:
    @pytest.mark.parametrize(
        "value",
        [
            42,
            "hello world",
            b"\x00" * 20,
            [1, 2, 3],
            {"a": 1, "b": [True, None]},
            RID(7, 3),
            IndexKey(b"key-value", RID(1, 2)),
            3.14,
        ],
    )
    def test_every_truncation_point_raises_walerror(self, value):
        raw = encode_value(value)
        for cut in range(len(raw)):
            with pytest.raises(WALError):
                decode_value(raw[:cut])

    def test_empty_input(self):
        with pytest.raises(WALError):
            decode_value(b"")

    def test_oversized_length_prefix(self):
        import struct

        raw = b"B" + struct.pack(">I", 10**6) + b"short"
        with pytest.raises(WALError):
            decode_value(raw)

    def test_invalid_utf8_in_str(self):
        import struct

        raw = b"S" + struct.pack(">I", 2) + b"\xff\xfe"
        with pytest.raises(WALError):
            decode_value(raw)


@given(st.binary(max_size=200))
def test_random_bytes_never_raise_non_walerror(garbage):
    """Fuzz: decoding arbitrary bytes either succeeds (by luck) or
    raises WALError — nothing else escapes."""
    try:
        decode_value(garbage)
    except WALError:
        pass


@given(st.binary(min_size=1, max_size=120), st.integers(min_value=0, max_value=150))
def test_random_offset_never_raises_non_walerror(garbage, offset):
    try:
        decode_value(garbage, offset)
    except WALError:
        pass
