"""Index page unit behaviour: search, routing, split/remove entries."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.btree.node import _LEAF_ENTRY_OVERHEAD, _NONLEAF_ENTRY_OVERHEAD, IndexPage
from repro.common.errors import IndexError_
from repro.common.rid import RID, IndexKey
from repro.storage.page import PAGE_OVERHEAD, Page


def key(value: int, rid: int = 0) -> IndexKey:
    return IndexKey(b"%08d" % value, RID(1, rid))


def leaf_with(*values: int) -> IndexPage:
    page = IndexPage(1, index_id=1, level=0)
    for v in values:
        page.insert_key(key(v))
    return page


class TestLeafSearch:
    def test_insert_keeps_sorted(self):
        page = leaf_with(3, 1, 2)
        assert [k.value for k in page.keys] == [b"%08d" % v for v in (1, 2, 3)]

    def test_find_key_exact(self):
        page = leaf_with(1, 2, 3)
        pos, found = page.find_key(key(2))
        assert (pos, found) == (1, True)

    def test_find_key_absent(self):
        page = leaf_with(1, 3)
        pos, found = page.find_key(key(2))
        assert (pos, found) == (1, False)

    def test_duplicate_full_key_rejected(self):
        page = leaf_with(1)
        with pytest.raises(IndexError_):
            page.insert_key(key(1))

    def test_duplicate_value_different_rid_allowed(self):
        page = leaf_with(1)
        page.insert_key(key(1, rid=5))
        assert len(page.keys) == 2

    def test_remove_missing_key_rejected(self):
        with pytest.raises(IndexError_):
            leaf_with(1).remove_key(key(2))

    def test_bounds_key(self):
        page = leaf_with(10, 30)
        assert page.bounds_key(key(20))
        assert not page.bounds_key(key(5))
        assert not page.bounds_key(key(35))
        assert not page.bounds_key(key(10))  # equal is not bound
        assert not leaf_with(10).bounds_key(key(10))


class TestNonleafRouting:
    def make_nonleaf(self):
        page = IndexPage(1, index_id=1, level=1)
        page.child_ids = [10, 11, 12]
        page.high_keys = [key(100), key(200), None]
        return page

    def test_routing(self):
        page = self.make_nonleaf()
        assert page.child_for(key(50)) == 10
        assert page.child_for(key(100)) == 11  # high key is exclusive
        assert page.child_for(key(150)) == 11
        assert page.child_for(key(200)) == 12
        assert page.child_for(key(999)) == 12

    def test_max_high_key(self):
        page = self.make_nonleaf()
        assert page.max_high_key() == key(200)
        single = IndexPage(1, 1, 1)
        single.child_ids = [5]
        single.high_keys = [None]
        assert single.max_high_key() is None

    def test_insert_split_entry(self):
        page = self.make_nonleaf()
        page.insert_split_entry(11, 99, key(150))
        assert page.child_ids == [10, 11, 99, 12]
        assert page.high_keys == [key(100), key(150), key(200), None]

    def test_insert_split_entry_rightmost(self):
        page = self.make_nonleaf()
        page.insert_split_entry(12, 99, key(300))
        assert page.child_ids == [10, 11, 12, 99]
        assert page.high_keys == [key(100), key(200), key(300), None]

    def test_remove_middle_child(self):
        page = self.make_nonleaf()
        page.remove_child(11)
        assert page.child_ids == [10, 12]
        assert page.high_keys == [key(100), None]

    def test_remove_rightmost_child_clears_new_rightmost_high(self):
        page = self.make_nonleaf()
        page.remove_child(12)
        assert page.child_ids == [10, 11]
        assert page.high_keys == [key(100), None]

    def test_remove_unknown_child(self):
        with pytest.raises(IndexError_):
            self.make_nonleaf().remove_child(404)

    def test_empty_routing_rejected(self):
        page = IndexPage(1, 1, 1)
        with pytest.raises(IndexError_):
            page.child_for(key(1))


class TestSizeAccounting:
    def test_room_check_reflects_key_size(self):
        page = IndexPage(1, 1, 0)
        small = key(1)
        assert page.has_room_for_key(small, page_size=4096)
        assert not page.has_room_for_key(small, page_size=260)

    def test_payload_roundtrip_preserves_bits(self):
        page = leaf_with(1)
        page.sm_bit = True
        page.delete_bit = True
        clone = IndexPage.from_payload(1, page.to_payload())
        assert clone.sm_bit and clone.delete_bit

    def test_load_payload_overwrites_in_place(self):
        page = leaf_with(1, 2)
        other = IndexPage(1, index_id=9, level=1)
        other.child_ids = [4]
        other.high_keys = [None]
        page.load_payload(other.to_payload())
        assert not page.is_leaf
        assert page.index_id == 9
        assert page.keys == []


@given(st.lists(st.integers(min_value=0, max_value=10_000), unique=True, min_size=1))
def test_leaf_insert_order_invariant(values):
    page = IndexPage(1, 1, 0)
    for v in values:
        page.insert_key(key(v))
    assert page.keys == sorted(page.keys)
    assert page.entry_count() == len(values)


@given(
    st.lists(st.integers(min_value=0, max_value=10_000), unique=True, min_size=2),
    st.data(),
)
def test_leaf_remove_inverse_of_insert(values, data):
    page = IndexPage(1, 1, 0)
    for v in values:
        page.insert_key(key(v))
    victim = data.draw(st.sampled_from(values))
    page.remove_key(key(victim))
    assert key(victim) not in page.keys
    assert page.keys == sorted(page.keys)


def linear_child_for(page: IndexPage, probe: IndexKey) -> int:
    """The routing rule as written before it became a bisect: the first
    child whose high key is > probe, else the rightmost child."""
    for child_id, high in zip(page.child_ids, page.high_keys):
        if high is None or probe < high:
            return child_id
    return page.child_ids[-1]


# Few distinct values and RIDs, so equal values ordered by RID and
# probes equal to a high key are the common case, not the rare one.
index_keys = st.builds(
    key, st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=4)
)


@given(st.lists(index_keys, unique=True, max_size=12), index_keys)
def test_bisect_routing_equals_the_linear_scan(highs, probe):
    page = IndexPage(1, index_id=1, level=1)
    page.high_keys = [*sorted(highs), None]
    page.child_ids = list(range(100, 100 + len(page.high_keys)))
    assert page.child_for(probe) == linear_child_for(page, probe)
    for high in highs:
        assert page.child_for(high) == linear_child_for(page, high)


@given(index_keys, index_keys)
def test_index_key_order_is_the_tuple_order(a, b):
    assert (a < b) == ((a.value, a.rid.page_id, a.rid.slot) < (b.value, b.rid.page_id, b.rid.slot))
    assert (a <= b) == (a < b or a == b)


def walked_used_size(page: IndexPage) -> int:
    """The used size as it was computed before it became a maintained
    field: a walk over every entry."""
    total = PAGE_OVERHEAD
    if page.is_leaf:
        for k in page.keys:
            total += k.encoded_size() + _LEAF_ENTRY_OVERHEAD
    else:
        for high in page.high_keys:
            total += _NONLEAF_ENTRY_OVERHEAD
            if high is not None:
                total += high.encoded_size()
    return total


def varied_key(rng: random.Random) -> IndexKey:
    value = rng.randbytes(rng.randint(0, 24))
    return IndexKey(value, RID(rng.randint(1, 50), rng.randint(0, 9)))


@pytest.mark.parametrize("seed", range(20))
def test_maintained_used_size_equals_the_walk(seed):
    """Every entry mutation keeps ``used_size()`` equal to a fresh walk,
    and the decoded image carries the same figure."""
    rng = random.Random(seed)
    leaf = IndexPage(1, index_id=1, level=0)
    nonleaf = IndexPage(2, index_id=1, level=1)
    nonleaf.replace_entries(child_ids=[100], high_keys=[None])
    next_child = 101
    for _ in range(400):
        action = rng.randrange(8)
        if action < 3:
            candidate = varied_key(rng)
            if not leaf.find_key(candidate)[1]:
                leaf.insert_key(candidate)
        elif action == 3 and leaf.keys:
            leaf.remove_key(rng.choice(leaf.keys))
        elif action == 4:
            left = rng.choice(nonleaf.child_ids)
            nonleaf.insert_split_entry(left, next_child, varied_key(rng))
            next_child += 1
        elif action == 5 and len(nonleaf.child_ids) > 1:
            nonleaf.remove_child(rng.choice(nonleaf.child_ids))
        elif action == 6:
            page = rng.choice((leaf, nonleaf))
            if page.entry_count() > 1:
                page.truncate(rng.randint(1, page.entry_count() - 1))
        else:
            clone = IndexPage(leaf.page_id, 0, 0)
            clone.load_payload(rng.choice((leaf, nonleaf)).to_payload())
            assert clone.used_size() == walked_used_size(clone)
        for page in (leaf, nonleaf):
            assert page.used_size() == walked_used_size(page)
    for page in (leaf, nonleaf):
        loaded = Page.from_bytes(page.to_bytes())
        assert loaded.used_size() == walked_used_size(page)
        assert page.used_size() >= len(page.to_bytes())
