"""Page image serialization and the kind registry."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree.node import IndexPage
from repro.common.errors import StorageError
from repro.common.rid import RID, IndexKey
from repro.data.heap import HeapPage
from repro.storage.page import PAGE_IMAGE_HEADER, Page


class TestEnvelope:
    def test_heap_page_roundtrip(self):
        page = HeapPage(3, table_id=9)
        page.append_record(b"abc")
        page.set_ghost(page.append_record(b"dead"), ghost=True)
        page.page_lsn = 77
        loaded = Page.from_bytes(page.to_bytes())
        assert isinstance(loaded, HeapPage)
        assert loaded.page_id == 3
        assert loaded.page_lsn == 77
        assert loaded.table_id == 9
        assert loaded.record(0) == b"abc"
        assert not loaded.is_visible(1)

    def test_index_page_roundtrip(self):
        page = IndexPage(5, index_id=2, level=0)
        page.insert_key(IndexKey(b"k1", RID(1, 0)))
        page.sm_bit = True
        page.delete_bit = True
        page.next_leaf = 9
        loaded = Page.from_bytes(page.to_bytes())
        assert isinstance(loaded, IndexPage)
        assert loaded.keys == page.keys
        assert loaded.sm_bit and loaded.delete_bit
        assert loaded.next_leaf == 9

    def test_nonleaf_roundtrip(self):
        page = IndexPage(5, index_id=2, level=1)
        page.child_ids = [10, 11]
        page.high_keys = [IndexKey(b"m", RID(0, 0)), None]
        loaded = Page.from_bytes(page.to_bytes())
        assert loaded.child_ids == [10, 11]
        assert loaded.high_keys == page.high_keys

    def test_unknown_kind_rejected(self):
        raw = PAGE_IMAGE_HEADER.pack(0x7F, 1, 0)
        with pytest.raises(StorageError):
            Page.from_bytes(raw)

    def test_tagged_image_rejected_as_the_old_format(self):
        from repro.codec.values import encode_value

        raw = encode_value(
            {"kind": "heap", "page_id": 1, "page_lsn": 0, "body": {"table_id": 1}}
        )
        with pytest.raises(StorageError, match="tagged-codec format"):
            Page.from_bytes(raw)

    def test_used_size_bounds_serialized_size(self):
        # The conservative estimate must never undershoot reality.
        page = HeapPage(1, table_id=1)
        for i in range(40):
            page.append_record(b"x" * (i % 30))
        assert page.used_size() >= len(page.to_bytes())

    def test_index_used_size_bounds_serialized_size(self):
        page = IndexPage(1, index_id=1, level=0)
        for i in range(100):
            page.insert_key(IndexKey(b"%06d" % i, RID(1, i)))
        assert page.used_size() >= len(page.to_bytes())


def full_leaf() -> IndexPage:
    page = IndexPage(12, index_id=3, level=0)
    for i in range(60):
        page.insert_key(IndexKey(b"k%05d" % i, RID(7, i)))
    page.page_lsn = 991
    return page


def full_heap() -> HeapPage:
    page = HeapPage(13, table_id=4)
    for i in range(40):
        page.append_record(b"row-%d" % i, xmin=i + 1)
    page.set_ghost(5, ghost=True, xmax=77)
    page.remove_record(9)
    page.page_lsn = 992
    return page


def nonleaf() -> IndexPage:
    page = IndexPage(14, index_id=3, level=2)
    page.replace_entries(
        child_ids=[20, 21, 22],
        high_keys=[IndexKey(b"g", RID(1, 1)), IndexKey(b"q", RID(2, 0)), None],
    )
    return page


class TestMalformedImages:
    """A body that gets past the CRC but does not parse (a damaged
    image-copy dump, say) is a StorageError naming the page, never a
    bare struct.error or IndexError."""

    @pytest.mark.parametrize("make", [full_leaf, full_heap, nonleaf])
    def test_every_truncation_fails_by_name(self, make):
        page = make()
        raw = page.to_bytes()
        for cut in range(len(raw)):
            with pytest.raises(StorageError) as caught:
                Page.from_bytes(raw[:cut])
            if cut >= PAGE_IMAGE_HEADER.size:
                assert f"page {page.page_id}" in str(caught.value)

    def test_trailing_bytes_fail_by_name(self):
        raw = full_heap().to_bytes() + b"\x00"
        with pytest.raises(StorageError, match="page 13"):
            Page.from_bytes(raw)

    @pytest.mark.parametrize("make", [full_leaf, full_heap, nonleaf])
    def test_garbled_bodies_parse_or_fail_by_name(self, make):
        raw = make().to_bytes()
        rng = random.Random(5)
        for _ in range(300):
            damaged = bytearray(raw)
            for _ in range(rng.randint(1, 4)):
                at = rng.randrange(PAGE_IMAGE_HEADER.size, len(raw))
                damaged[at] = rng.randrange(256)
            try:
                loaded = Page.from_bytes(bytes(damaged))
            except StorageError:
                continue
            assert type(loaded) is type(make())


index_keys = st.builds(
    IndexKey,
    st.binary(max_size=20),
    st.builds(RID, st.integers(0, 2**32 - 1), st.integers(0, 2**16 - 1)),
)
stamps = st.integers(0, 2**64 - 1)
heap_slots = st.lists(
    st.one_of(
        st.none(),
        st.tuples(st.binary(max_size=40), st.booleans(), stamps, stamps),
    ),
    max_size=30,
)


@settings(max_examples=150, deadline=None)
@given(heap_slots, st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1))
def test_heap_image_roundtrip(slots, table_id, page_lsn):
    """Empty slots, ghosts and stamps all survive the image."""
    page = HeapPage(9, table_id)
    for slot, entry in enumerate(slots):
        if entry is None:
            page.free_slot(slot)
        else:
            data, visible, xmin, xmax = entry
            page.place_record(slot, data, visible, xmin, xmax)
    page.page_lsn = page_lsn
    raw = page.to_bytes()
    loaded = Page.from_bytes(raw)
    assert isinstance(loaded, HeapPage)
    assert (loaded.page_id, loaded.page_lsn, loaded.table_id) == (9, page_lsn, table_id)
    assert loaded.slots == page.slots
    assert loaded.used_size() == page.used_size() >= len(raw)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 3),
    st.lists(index_keys, unique=True, max_size=30),
    st.lists(st.one_of(st.none(), index_keys), max_size=30),
    st.booleans(),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_index_image_roundtrip(level, keys, highs, sm_bit, delete_bit, neighbour):
    """Leaf keys, nonleaf high keys (None included), the two bits and
    the chain pointers all survive the image."""
    page = IndexPage(4, index_id=6, level=level)
    if level == 0:
        page.replace_entries(sorted(keys))
        page.prev_leaf, page.next_leaf = neighbour, neighbour // 2
    else:
        page.replace_entries(
            child_ids=list(range(50, 50 + len(highs))), high_keys=highs
        )
    page.sm_bit, page.delete_bit = sm_bit, delete_bit
    page.page_lsn = 2**40 + level
    raw = page.to_bytes()
    loaded = Page.from_bytes(raw)
    assert isinstance(loaded, IndexPage)
    assert loaded.to_payload() == page.to_payload()
    assert loaded.page_lsn == page.page_lsn
    assert loaded.used_size() == page.used_size() >= len(raw)
