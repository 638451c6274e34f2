"""RID and IndexKey ordering and serialization.

Both are named tuples.  The property tests below pin them to the frozen
dataclasses they replaced (kept here as the reference): the same ``<``,
``==``, ``sorted`` order and ``hash`` over random (value, page_id,
slot) triples.
"""

import struct
from dataclasses import dataclass
from functools import total_ordering

from hypothesis import given
from hypothesis import strategies as st

from repro.codec.values import decode_value, encode_value
from repro.common.rid import NULL_RID, RID, IndexKey

page_ids = st.integers(min_value=0, max_value=2**32 - 1)
slot_nos = st.integers(min_value=0, max_value=2**16 - 1)
rids = st.builds(RID, page_ids, slot_nos)
#: Few distinct values, so equal values (and the RID tiebreak) are common.
values = st.binary(max_size=3)
triples = st.tuples(values, page_ids | st.integers(0, 3), slot_nos | st.integers(0, 3))


@total_ordering
@dataclass(frozen=True, slots=True)
class OldRID:
    page_id: int
    slot: int

    def __lt__(self, other: "OldRID") -> bool:
        return (self.page_id, self.slot) < (other.page_id, other.slot)


@total_ordering
@dataclass(frozen=True, slots=True)
class OldIndexKey:
    value: bytes
    rid: OldRID

    def __lt__(self, other: "OldIndexKey") -> bool:
        if self.value != other.value:
            return self.value < other.value
        return self.rid < other.rid


def both(triple):
    value, page_id, slot = triple
    return IndexKey(value, RID(page_id, slot)), OldIndexKey(value, OldRID(page_id, slot))


class TestRID:
    def test_ordering_by_page_then_slot(self):
        assert RID(1, 5) < RID(2, 0)
        assert RID(1, 5) < RID(1, 6)
        assert not RID(1, 5) < RID(1, 5)

    def test_roundtrip(self):
        """A RID becomes bytes only through the codec (log payloads and
        lock tables); it comes back a RID."""
        rid = RID(123456, 789)
        decoded, _ = decode_value(encode_value(rid))
        assert decoded == rid and type(decoded) is RID

    def test_null_rid(self):
        assert NULL_RID == RID(0, 0)

    @given(rids, rids)
    def test_order_matches_tuple_order(self, a, b):
        assert (a < b) == ((a.page_id, a.slot) < (b.page_id, b.slot))

    @given(rids)
    def test_roundtrip_property(self, rid):
        decoded, _ = decode_value(encode_value(rid))
        assert decoded == rid and type(decoded) is RID

    def test_repr_unchanged(self):
        assert repr(RID(3, 4)) == "RID(3:4)"


class TestIndexKey:
    def test_ordering_value_first(self):
        assert IndexKey(b"a", RID(9, 9)) < IndexKey(b"b", RID(0, 0))

    def test_ordering_rid_breaks_value_ties(self):
        assert IndexKey(b"a", RID(1, 0)) < IndexKey(b"a", RID(1, 1))

    def test_encoded_size_grows_with_value(self):
        small = IndexKey(b"a", RID(1, 1))
        large = IndexKey(b"a" * 100, RID(1, 1))
        assert large.encoded_size() - small.encoded_size() == 99

    def test_hashable_and_equal(self):
        a = IndexKey(b"k", RID(1, 2))
        b = IndexKey(b"k", RID(1, 2))
        assert a == b
        assert hash(a) == hash(b)

    def test_repr_unchanged(self):
        assert repr(IndexKey(b"k", RID(1, 2))) == "IndexKey(b'k', RID(1:2))"

    def test_equal_to_the_plain_tuple_of_its_fields(self):
        """The documented price of being a tuple."""
        assert IndexKey(b"k", RID(1, 2)) == (b"k", (1, 2))
        assert RID(1, 2) == (1, 2)


class TestAgreesWithTheOldDataclasses:
    @given(triples, triples)
    def test_lt_eq_and_hash(self, a, b):
        new_a, old_a = both(a)
        new_b, old_b = both(b)
        assert (new_a < new_b) == (old_a < old_b)
        assert (new_a <= new_b) == (old_a <= old_b)
        assert (new_a > new_b) == (old_a > old_b)
        assert (new_a == new_b) == (old_a == old_b)
        assert (new_a.rid < new_b.rid) == (old_a.rid < old_b.rid)
        assert (new_a.rid == new_b.rid) == (old_a.rid == old_b.rid)
        assert hash(new_a) == hash(old_a)
        assert hash(new_a.rid) == hash(old_a.rid)

    @given(st.lists(triples, max_size=30))
    def test_sorted_order(self, items):
        pairs = [both(t) for t in items]
        new_sorted = sorted(new for new, _ in pairs)
        old_sorted = sorted(old for _, old in pairs)
        assert [(k.value, k.rid.page_id, k.rid.slot) for k in new_sorted] == [
            (k.value, k.rid.page_id, k.rid.slot) for k in old_sorted
        ]


class TestCodecRoundTrip:
    """The codec keeps its R/K tags: a key type comes back as itself,
    not as the list a plain tuple decodes to."""

    @given(st.tuples(values, rids))
    def test_index_key_comes_back_an_index_key(self, pair):
        key = IndexKey(*pair)
        decoded, _ = decode_value(encode_value({"keys": [key], "rid": key.rid}))
        assert decoded == {"keys": [key], "rid": key.rid}
        assert type(decoded["keys"][0]) is IndexKey
        assert type(decoded["keys"][0].rid) is RID
        assert type(decoded["rid"]) is RID

    def test_plain_tuple_still_decodes_as_a_list(self):
        decoded, _ = decode_value(encode_value({"pair": (b"k", (1, 2))}))
        assert decoded == {"pair": [b"k", [1, 2]]}
        assert type(decoded["pair"]) is list

    def test_bytes_are_the_tagged_encoding(self):
        rid_body = struct.pack(">IH", 1, 2)
        assert encode_value(RID(1, 2)) == b"R" + rid_body
        assert encode_value(IndexKey(b"v", RID(1, 2))) == (
            b"K" + rid_body + struct.pack(">I", 1) + b"v"
        )

