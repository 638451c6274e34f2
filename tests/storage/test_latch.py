"""Latch semantics: S/X, conditional, instant, re-entrancy, fairness."""

import threading

import pytest

from repro.common.errors import LatchError, LockNotGrantedError
from repro.common.stats import StatsRegistry
from repro.storage.latch import Latch, LatchManager
from tests.conftest import spy_on_latch


class TestBasicModes:
    def test_multiple_shared_holders(self):
        latch = Latch("p")
        latch.acquire("S")
        granted = []

        def reader():
            latch.acquire("S")
            granted.append(1)
            latch.release()

        t = threading.Thread(target=reader)
        t.start()
        t.join(timeout=5)
        assert granted == [1]
        latch.release()

    def test_x_excludes_s_from_other_thread(self):
        latch = Latch("p")
        latch.acquire("X")

        def reader():
            with pytest.raises(LockNotGrantedError):
                latch.acquire("S", conditional=True)

        t = threading.Thread(target=reader)
        t.start()
        t.join(timeout=5)
        latch.release()

    def test_invalid_mode(self):
        with pytest.raises(LatchError):
            Latch("p").acquire("Z")

    def test_release_by_non_holder(self):
        with pytest.raises(LatchError):
            Latch("p").release()


class TestConditionalAndInstant:
    def test_conditional_x_fails_under_s(self):
        latch = Latch("p")
        latch.acquire("S")

        def writer():
            with pytest.raises(LockNotGrantedError):
                latch.acquire("X", conditional=True)

        t = threading.Thread(target=writer)
        t.start()
        t.join(timeout=5)
        latch.release()

    def test_instant_waits_for_x_holder(self):
        stats = StatsRegistry()
        latch = Latch("p", stats=stats)
        cond = spy_on_latch(latch)
        latch.acquire("X")
        returned = threading.Event()

        def waiter():
            latch.instant("S")
            returned.set()

        t = threading.Thread(target=waiter)
        t.start()
        assert cond.parked.wait(5)
        assert not returned.is_set()  # not granted before the release
        assert stats.get("latch.waits") == 0
        latch.release()
        t.join(timeout=5)
        assert returned.is_set()
        assert stats.get("latch.waits") == 1
        assert not latch.is_held()


class TestReentrancy:
    def test_s_under_s_same_owner(self):
        latch = Latch("p")
        latch.acquire("S")
        latch.acquire("S")
        latch.release()
        latch.release()
        assert not latch.is_held()

    def test_s_under_x_same_owner(self):
        latch = Latch("p")
        latch.acquire("X")
        latch.acquire("S")  # instant-S-while-holding-X pattern
        latch.release()
        assert latch.held_by_me() == "X"
        latch.release()

    def test_upgrade_rejected(self):
        latch = Latch("p")
        latch.acquire("S")
        with pytest.raises(LatchError):
            latch.acquire("X")
        latch.release()


class TestWriterFairness:
    def test_pending_x_blocks_new_s(self):
        latch = Latch("p")
        cond = spy_on_latch(latch)
        latch.acquire("S")
        x_granted = threading.Event()

        def writer():
            latch.acquire("X")
            x_granted.set()
            latch.release()

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        assert cond.parked.wait(5)  # the writer is queued

        def late_reader():
            with pytest.raises(LockNotGrantedError):
                latch.acquire("S", conditional=True)

        reader_thread = threading.Thread(target=late_reader)
        reader_thread.start()
        reader_thread.join(timeout=5)
        latch.release()
        writer_thread.join(timeout=5)
        assert x_granted.is_set()


class TestLatchManager:
    def test_page_latches_are_per_page(self):
        manager = LatchManager()
        assert manager.page_latch(1) is manager.page_latch(1)
        assert manager.page_latch(1) is not manager.page_latch(2)

    def test_tree_latches_are_per_index(self):
        manager = LatchManager()
        assert manager.tree_latch(1) is manager.tree_latch(1)
        assert manager.tree_latch(1) is not manager.tree_latch(2)

    def test_two_page_latch_invariant_enforced(self):
        manager = LatchManager()
        manager.latch_page(1, "S")
        manager.latch_page(2, "S")
        with pytest.raises(LatchError):
            manager.latch_page(3, "S")
        # The offending latch was rolled back; the first two remain.
        assert manager.pages_held() == {1, 2}
        manager.unlatch_page(1)
        manager.unlatch_page(2)

    def test_held_pages_tracking(self):
        manager = LatchManager()
        manager.latch_page(7, "X")
        assert manager.pages_held() == {7}
        manager.unlatch_page(7)
        assert manager.pages_held() == set()

    def test_held_pages_are_thread_local(self):
        manager = LatchManager()
        manager.latch_page(1, "S")
        seen = {}

        def other():
            seen["pages"] = manager.pages_held()

        t = threading.Thread(target=other)
        t.start()
        t.join(timeout=5)
        assert seen["pages"] == set()
        manager.unlatch_page(1)
