"""Page envelope serialization and the kind registry."""

import pytest

from repro.btree.node import IndexPage
from repro.common.errors import StorageError
from repro.common.rid import RID, IndexKey
from repro.data.heap import HeapPage
from repro.storage.page import Page


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
        from repro.codec.values import encode_value

        raw = encode_value({"kind": "bogus", "page_id": 1, "page_lsn": 0, "body": {}})
        with pytest.raises(StorageError):
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
