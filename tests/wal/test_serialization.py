"""Tagged binary codec: roundtrips, determinism, errors."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.codec.values import decode_value, encode_value, encoded_size
from repro.common.errors import WALError
from repro.common.rid import RID, IndexKey

rids = st.builds(
    RID,
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=2**16 - 1),
)
index_keys = st.builds(IndexKey, st.binary(max_size=40), rids)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False),
    st.binary(max_size=64),
    st.text(max_size=64),
    rids,
    index_keys,
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.dictionaries(st.text(max_size=10), inner, max_size=6),
    ),
    max_leaves=20,
)


def roundtrip(value):
    raw = encode_value(value)
    decoded, offset = decode_value(raw)
    assert offset == len(raw)
    return decoded


class TestRoundtrips:
    def test_scalars(self):
        for value in (None, True, False, 0, -1, 2**40, 1.5, b"abc", "héllo"):
            assert roundtrip(value) == value

    def test_rid_and_key(self):
        rid = RID(7, 3)
        assert roundtrip(rid) == rid
        key = IndexKey(b"value", rid)
        assert roundtrip(key) == key

    def test_nested_structures(self):
        value = {"a": [1, None, {"b": b"x"}], "k": IndexKey(b"v", RID(1, 2))}
        assert roundtrip(value) == value

    def test_tuple_decodes_as_list(self):
        assert roundtrip((1, 2)) == [1, 2]

    @given(values)
    def test_roundtrip_property(self, value):
        decoded = roundtrip(value)
        # Tuples decode as lists; normalize before comparing.
        assert decoded == _listify(value)

    @given(values)
    def test_encoding_is_deterministic(self, value):
        assert encode_value(value) == encode_value(value)


class TestErrors:
    def test_unknown_type_rejected(self):
        with pytest.raises(WALError):
            encode_value(object())

    def test_non_string_dict_key_rejected(self):
        with pytest.raises(WALError):
            encode_value({1: "x"})

    def test_unknown_tag_rejected(self):
        with pytest.raises(WALError):
            decode_value(b"Z")


class TestSizes:
    def test_encoded_size_matches(self):
        value = {"k": [1, 2, 3], "b": b"xyz"}
        assert encoded_size(value) == len(encode_value(value))

    def test_offset_decoding(self):
        raw = encode_value(1) + encode_value("two")
        first, offset = decode_value(raw, 0)
        second, end = decode_value(raw, offset)
        assert (first, second) == (1, "two")
        assert end == len(raw)


def _listify(value):
    if isinstance(value, tuple):
        return [_listify(v) for v in value]
    if isinstance(value, list):
        return [_listify(v) for v in value]
    if isinstance(value, dict):
        return {k: _listify(v) for k, v in value.items()}
    return value
