"""Property-based round-trip and garbage-safety tests for the value
codec (:mod:`repro.codec.values`).

Two invariants: every encodable value decodes back to an equal value
with the exact byte length consumed, and no byte string — however
malformed — makes the decoder hang or leak a non-``WALError``
exception.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import values as values_module
from repro.codec.values import decode_value, encode_value, encoded_size
from repro.common.errors import WALError
from repro.common.rid import RID, IndexKey

U32 = struct.Struct(">I").pack
RID_BODY = struct.Struct(">IH").pack

rids = st.builds(
    RID,
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=2**16 - 1),
)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False),
    st.text(max_size=64),
    st.binary(max_size=64),
    rids,
    st.builds(IndexKey, st.binary(max_size=32), rids),
)

#: Dicts shaped like log payloads and rows: the value tags the dict
#: decode handles inline (int, bytes, RID, IndexKey), so truncation and
#: lying lengths reach each of those branches.
payload_dicts = st.dictionaries(
    st.text(max_size=16),
    st.one_of(
        st.integers(min_value=-(2**63), max_value=2**63 - 1),
        st.binary(max_size=64),
        rids,
        st.builds(IndexKey, st.binary(max_size=32), rids),
    ),
    min_size=1,
    max_size=5,
)

values = st.one_of(
    payload_dicts,
    st.recursive(
        scalars,
        lambda children: st.one_of(
            st.lists(children, max_size=5),
            st.dictionaries(st.text(max_size=16), children, max_size=5),
        ),
        max_leaves=25,
    ),
)


class TestRoundTrip:
    @given(values)
    @settings(max_examples=300, deadline=None)
    def test_decode_inverts_encode(self, value):
        raw = encode_value(value)
        decoded, consumed = decode_value(raw)
        assert decoded == value
        assert consumed == len(raw)
        assert type(decoded) is type(value)

    @given(values)
    @settings(max_examples=100, deadline=None)
    def test_encoded_size_matches(self, value):
        assert encoded_size(value) == len(encode_value(value))

    @given(values)
    @settings(max_examples=100, deadline=None)
    def test_memoryview_decode_matches_bytes_decode(self, value):
        raw = encode_value(value)
        from_bytes = decode_value(raw)
        assert decode_value(memoryview(raw)) == from_bytes
        # A view of a receive buffer: writable, so its slices cannot be
        # hashed as key-memo lookups.
        assert decode_value(memoryview(bytearray(raw))) == from_bytes

    def test_key_memo_stays_within_its_bound(self, monkeypatch):
        """Dict keys decoded from ``bytes`` are memoized up to the
        bound and no further; keys from a writable view never are."""
        monkeypatch.setattr(values_module, "_KEY_NAMES", {})
        monkeypatch.setattr(values_module, "_KEY_CACHE_MAX", 64)
        wide = {f"key-{n}": n for n in range(200)}
        raw = encode_value(wide)
        assert decode_value(memoryview(bytearray(raw)))[0] == wide
        assert values_module._KEY_NAMES == {}
        for _ in range(2):
            assert decode_value(raw)[0] == wide
        assert len(values_module._KEY_NAMES) == 64

    @given(values, st.binary(min_size=1, max_size=16))
    @settings(max_examples=100, deadline=None)
    def test_offset_decode_ignores_prefix(self, value, prefix):
        raw = encode_value(value)
        decoded, consumed = decode_value(prefix + raw, len(prefix))
        assert decoded == value
        assert consumed == len(prefix) + len(raw)


class TestGarbageSafety:
    @given(st.binary(max_size=256))
    @settings(max_examples=500, deadline=None)
    def test_random_bytes_never_leak_non_walerror(self, raw):
        try:
            decoded, consumed = decode_value(raw)
        except WALError:
            return
        assert 0 <= consumed <= len(raw)
        # A successful decode must re-encode without error.
        encode_value(decoded)

    @given(values, st.integers(min_value=1, max_value=16))
    @settings(max_examples=200, deadline=None)
    def test_truncation_raises_walerror(self, value, cut):
        raw = encode_value(value)
        if len(raw) <= 1 or cut >= len(raw):
            return
        truncated = raw[: len(raw) - cut]
        try:
            decoded, consumed = decode_value(truncated)
        except WALError:
            return
        # Some truncations still parse (e.g. cutting trailing list
        # items cannot happen — counts are explicit — but a value
        # whose tail is another value's prefix can).  They must at
        # least stay in bounds.
        assert consumed <= len(truncated)

    def test_unknown_tag(self):
        with pytest.raises(WALError, match="unknown type tag"):
            decode_value(b"\xff")

    def test_empty_input(self):
        with pytest.raises(WALError, match="truncated"):
            decode_value(b"")

    def test_lying_length_prefix(self):
        # str frame claiming 1000 bytes with 3 present.
        raw = b"S" + U32(1000) + b"abc"
        with pytest.raises(WALError, match="truncated"):
            decode_value(raw)

    @pytest.mark.parametrize(
        "raw",
        [
            # A dict key, and each value the dict decode inlines, cut
            # short or claiming more bytes than are present.
            b"D" + U32(1) + U32(1000) + b"k",
            b"D" + U32(1) + U32(1) + b"k" + b"B" + U32(1000) + b"abc",
            b"D" + U32(1) + U32(1) + b"k" + b"K" + RID_BODY(1, 2) + U32(1000) + b"abc",
            b"D" + U32(1) + U32(1) + b"k" + b"I" + b"\x00" * 7,
            b"D" + U32(1) + U32(1) + b"k" + b"R" + b"\x00" * 5,
            # A dict key with no value after it.
            b"D" + U32(1) + U32(1) + b"k",
        ],
        ids=["key", "bytes", "index-key", "int", "rid", "no-tag"],
    )
    def test_lying_length_in_a_dict(self, raw):
        for buffer in (raw, memoryview(bytearray(raw))):
            with pytest.raises(WALError, match="truncated|malformed"):
                decode_value(buffer)
