"""The uncontended latch fast path keeps every observable of the slow one.

An acquisition that conflicts with nobody is granted under a plain lock
and never touches the condition variable.  These tests pin down what
that must not change: what a monitor is told, who an X waiter blocks,
and when ``release`` wakes somebody.  Rendezvous is by ``Event`` and a
condition variable that reports when a thread parks on it — no sleeps.
"""

import threading

import pytest

from repro.common.errors import LatchError, LockNotGrantedError
from repro.common.stats import StatsRegistry
from repro.storage.latch import Latch, LatchManager
from tests.conftest import spy_on_latch

JOIN = 10.0


class RecordingMonitor:
    def __init__(self) -> None:
        self.events: list[tuple] = []

    def note_acquire(self, name, mode, conditional=False, reentrant=False, instant=False):
        self.events.append((name, mode, conditional, reentrant, instant))

    def note_release(self, name):
        self.events.append((name, "release"))


def run(fn) -> threading.Thread:
    thread = threading.Thread(target=fn)
    thread.start()
    return thread


def joined(thread: threading.Thread) -> None:
    thread.join(JOIN)
    assert not thread.is_alive()


#: What the monitor saw for ``scripted_calls`` at the commit before the
#: fast path went in (name, mode, conditional, reentrant, instant).
GOLDEN = [
    ("L", "S", False, False, False),
    ("L", "S", False, True, False),
    ("L", "release"),
    ("L", "X", False, False, False),
    ("L", "S", False, True, False),
    ("L", "X", True, True, False),
    ("L", "release"),
    ("L", "S", False, False, True),
    ("L", "release"),
    ("L", "X", True, False, True),
    ("L", "release"),
    ("L", "X", False, False, False),
    ("L", "release"),
    ("L", "S", True, False, False),
    ("L", "release"),
    (("page", 7), "S", False, False, False),
    (("page", 8), "X", True, False, False),
    (("page", 7), "release"),
    (("page", 8), "release"),
    (("tree", 3), "S", False, False, True),
    (("tree", 3), "release"),
]


def scripted_calls(monitor: RecordingMonitor) -> None:
    latch = Latch("L", monitor=monitor)
    # S, re-entrant S; only the last release is reported.
    latch.acquire("S")
    latch.acquire("S")
    latch.release()
    latch.release()
    # X, then S and conditional X under it.
    latch.acquire("X")
    latch.acquire("S")
    latch.acquire("X", conditional=True)
    latch.release()
    latch.release()
    latch.release()
    latch.instant("S")
    latch.instant("X", conditional=True)

    # Conditional misses against another thread's X are not reported.
    holding, done = threading.Event(), threading.Event()

    def holder() -> None:
        latch.acquire("X")
        holding.set()
        done.wait(JOIN)
        latch.release()

    other = run(holder)
    assert holding.wait(JOIN)
    with pytest.raises(LockNotGrantedError):
        latch.acquire("S", conditional=True)
    with pytest.raises(LockNotGrantedError):
        latch.instant("X", conditional=True)
    with pytest.raises(LatchError):
        latch.acquire("Z")
    done.set()
    joined(other)
    latch.acquire("S", conditional=True)
    latch.release()

    # The manager's latches report to the monitor it was built with.
    manager = LatchManager()
    manager._monitor = monitor  # noqa: SLF001 - what set_latch_monitor + construction does
    manager.latch_page(7, "S")
    manager.latch_page(8, "X", conditional=True)
    manager.unlatch_page(7)
    manager.unlatch_page(8)
    manager.tree_latch(3).instant("S")


def test_monitor_sees_the_same_sequence_as_before_the_fast_path():
    monitor = RecordingMonitor()
    scripted_calls(monitor)
    assert monitor.events == GOLDEN


def test_upgrade_is_still_refused_on_the_reentrant_path():
    latch = Latch("p")
    latch.acquire("S")
    with pytest.raises(LatchError, match="upgrade"):
        latch.acquire("X")
    assert latch.held_by_me() == "S"
    latch.release()
    assert not latch.is_held()


def test_parked_x_waiter_blocks_new_s_but_not_the_holders_reentry():
    latch = Latch("p")
    cond = spy_on_latch(latch)
    latch.acquire("S")
    got_x = threading.Event()

    def writer() -> None:
        latch.acquire("X")
        got_x.set()
        latch.release()

    waiter = run(writer)
    assert cond.parked.wait(JOIN)

    refused = []

    def newcomer() -> None:
        try:
            latch.acquire("S", conditional=True)
        except LockNotGrantedError:
            refused.append(True)
        else:
            latch.release()

    joined(run(newcomer))
    assert refused == [True]

    latch.acquire("S")  # re-entrant: the holder is never blocked by the waiter
    latch.release()
    assert not got_x.is_set()
    latch.release()
    joined(waiter)
    assert got_x.is_set()
    assert not latch.is_held()


def test_free_latch_with_a_pending_x_waiter_refuses_new_s():
    """Between an X holder's release and the parked X waiter claiming
    the latch the holder table is empty — and a new S must still queue
    behind that waiter, exactly as it did before."""
    latch = Latch("p")
    latch._x_waiters = 1  # noqa: SLF001 - the state a woken, not yet running, X waiter leaves
    with pytest.raises(LockNotGrantedError):
        latch.acquire("S", conditional=True)
    latch.acquire("X", conditional=True)
    latch.release()


def test_release_touches_the_condition_only_when_somebody_waits():
    stats = StatsRegistry()
    latch = Latch("p", stats)
    stats.add_source(latch.grant_counts)
    cond = spy_on_latch(latch)
    for mode in ("S", "X"):
        latch.acquire(mode)
        latch.acquire("S")
        latch.release()
        latch.release()
    assert cond.notifies == 0
    assert not cond.parked.is_set()

    latch.acquire("X")
    woke = threading.Event()

    def reader() -> None:
        latch.acquire("S")
        woke.set()
        latch.release()

    waiter = run(reader)
    assert cond.parked.wait(JOIN)
    latch.release()
    joined(waiter)
    assert woke.is_set()
    assert cond.notifies == 1
    assert stats.get("latch.waits") == 1
    assert stats.get("latch.acquisitions") == 6
    assert stats.get("latch.acquisitions.S") == 4
    assert stats.get("latch.acquisitions.X") == 2


def test_page_latch_lookup_races_create_one_latch():
    manager = LatchManager()
    start = threading.Barrier(8)
    seen = []

    def look() -> None:
        start.wait(JOIN)
        seen.append(manager.page_latch(42))

    for thread in [run(look) for _ in range(8)]:
        joined(thread)
    assert len(seen) == 8
    assert all(latch is seen[0] for latch in seen)
