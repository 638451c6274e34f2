"""Latches: cheap short-duration S/X synchronization on pages and trees.

ARIES distinguishes *latches* (physical consistency, no deadlock
detection, held for instructions) from *locks* (logical consistency,
deadlock detection, held for durations).  §2.1 and §4 of the paper
dictate the protocol this module supports:

- S and X modes, conditional and unconditional acquisition;
- *instant* acquisition (acquire then release immediately), which is
  how a traverser waits for an in-progress SMO to finish via the tree
  latch;
- re-entrant acquisition by the same owner at an equal-or-weaker mode
  (an SMO holding the X tree latch performs the triggering insert,
  whose action routine may request an instant S tree latch);
- no deadlock detection: the caller's protocol (parent→child ordering,
  leaf→next-leaf ordering, release-low-before-latch-high during SMO
  propagation) guarantees freedom from latch deadlocks (§4).

Waiting X requests block new S grants from *other* owners, so writers
are not starved.
"""

from __future__ import annotations

import threading

from repro.common.errors import LatchError, LockNotGrantedError
from repro.common.stats import StatsRegistry

#: Optional process-wide observer (see repro.analysis.lockgraph).  Kept a
#: plain module global so the hot path is one load + None check when off.
_monitor = None

#: Distinguishes "no monitor was captured" (fall through to the global)
#: from "a monitor — possibly None — was captured at construction".
_UNSET = object()


def set_latch_monitor(monitor) -> None:
    """Install (or clear, with None) the latch instrumentation hook.

    The monitor sees every grant and full release:
    ``note_acquire(name, mode, conditional=..., reentrant=..., instant=...)``
    and ``note_release(name)``.  Opt-in: the default is no monitor and
    zero overhead beyond a global load.
    """
    global _monitor
    _monitor = monitor


def get_latch_monitor():
    return _monitor


#: ``latch.acquisitions`` and its per-mode breakdown move together, in
#: one counter bump (see ``StatsRegistry.incr``).
_ACQUISITION_STATS = {
    mode: ("latch.acquisitions", f"latch.acquisitions.{mode}") for mode in ("S", "X")
}


class Latch:
    """One S/X latch.

    A latch is meant to cost tens of instructions (§1.2), so the holder
    table is guarded by a plain ``threading.Lock`` and an acquisition
    that conflicts with nobody — free latch, re-entry, or S beside S
    with no X waiting — is granted under that lock alone.  Only a
    conflicting request touches the condition variable (built over the
    same lock), and ``release`` notifies only while somebody is parked
    on it.

    ``monitor`` pins the observer this latch reports to.  Latches made
    by a :class:`LatchManager` inherit the monitor captured when the
    manager was built, so a latch always reports to the observer of
    *its own* database — a leaked background thread from another
    database can never write its (colliding) page-id orderings into a
    later round's graph.  Bare latches leave it unset and follow the
    process-wide hook, which is what the unit tests want.
    """

    def __init__(
        self,
        name: object,
        stats: StatsRegistry | None = None,
        monitor: object = _UNSET,
    ) -> None:
        self.name = name
        self._stats = stats or StatsRegistry(enabled=False)
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        #: Mode held by each owning thread, and — only for a thread that
        #: has re-entered — how many releases it owes beyond the first.
        self._holders: dict[int, str] = {}
        self._reentries: dict[int, int] = {}
        #: Threads parked in ``acquire``, and how many of them want X.
        self._waiters = 0
        self._x_waiters = 0
        self._monitor = monitor

    def _observer(self):
        return _monitor if self._monitor is _UNSET else self._monitor

    # -- internals -----------------------------------------------------------

    def _grantable(self, mode: str) -> bool:
        """May a thread that holds nothing here be granted ``mode``?
        Caller holds ``_lock``."""
        holders = self._holders
        if mode == "X":
            return not holders
        # New S grant: blocked by an X holder or by a pending X waiter.
        if self._x_waiters:
            return False
        return "X" not in holders.values()

    def _wait(self, mode: str, conditional: bool, timeout: float) -> None:
        """The slow path of a conflicting request: a conditional one
        fails, any other parks until ``mode`` is grantable.  Caller
        holds ``_lock``."""
        if conditional:
            self._stats.incr("latch.conditional_misses")
            raise LockNotGrantedError(f"latch {self.name!r} busy")
        self._waiters += 1
        if mode == "X":
            self._x_waiters += 1
        try:
            granted = self._cond.wait_for(
                lambda: self._grantable(mode), timeout=timeout
            )
        finally:
            self._waiters -= 1
            if mode == "X":
                self._x_waiters -= 1
        if not granted:
            raise LatchError(
                f"latch {self.name!r} not granted within {timeout}s "
                "(protocol bug: latch deadlocks are impossible by design)"
            )
        self._stats.incr("latch.waits")

    # -- API -------------------------------------------------------------------

    def acquire(
        self,
        mode: str,
        conditional: bool = False,
        timeout: float = 30.0,
        _instant: bool = False,
    ) -> None:
        """Acquire in ``mode`` ('S' or 'X').

        Conditional requests raise
        :class:`~repro.common.errors.LockNotGrantedError` instead of
        waiting — the building block of the paper's "release all
        latches, then request unconditionally" discipline.
        """
        stat_key = _ACQUISITION_STATS.get(mode)
        if stat_key is None:
            raise LatchError(f"invalid latch mode {mode!r}")
        owner = threading.get_ident()
        reentrant = False
        with self._lock:
            holders = self._holders
            # A free latch nobody waits for is granted with no further
            # checks — the common case by far.
            if holders or self._x_waiters:
                held = holders.get(owner)
                if held is not None:
                    # Re-entrant: S under S or S under X is fine; X under
                    # S is an upgrade and is a protocol bug in this
                    # codebase.
                    if mode == "X" and held == "S":
                        raise LatchError(
                            f"latch {self.name!r}: S→X upgrade attempted"
                        )
                    self._reentries[owner] = self._reentries.get(owner, 0) + 1
                    reentrant = True
                elif not self._grantable(mode):
                    self._wait(mode, conditional, timeout)
            if not reentrant:
                holders[owner] = mode
        stats = self._stats
        stats.incr(stat_key)
        if stats.audit_latches:
            stats.record_latch(owner, self.name, mode)
        monitor = self._observer()
        if monitor is not None:
            monitor.note_acquire(
                self.name,
                mode,
                conditional=conditional,
                reentrant=reentrant,
                instant=_instant,
            )

    def release(self) -> None:
        owner = threading.get_ident()
        with self._lock:
            if owner not in self._holders:
                raise LatchError(f"latch {self.name!r} released by non-holder")
            depth = self._reentries.get(owner)
            if depth:
                # One level of a re-entrant hold; the latch stays held.
                if depth == 1:
                    del self._reentries[owner]
                else:
                    self._reentries[owner] = depth - 1
                return
            del self._holders[owner]
            if self._waiters:
                self._cond.notify_all()
        monitor = self._observer()
        if monitor is not None:
            monitor.note_release(self.name)

    def instant(self, mode: str, conditional: bool = False, timeout: float = 30.0) -> None:
        """Instant-duration acquisition: wait until grantable, then let go.

        Used on the tree latch to wait out an in-progress SMO (§2.1).
        """
        self.acquire(mode, conditional=conditional, timeout=timeout, _instant=True)  # noqa: RPR001 - released on the next line (instant duration)
        self.release()
        self._stats.incr("latch.instant")

    # -- introspection --------------------------------------------------------

    def held_by_me(self) -> str | None:
        """Mode this thread holds the latch in, or None."""
        with self._lock:
            return self._holders.get(threading.get_ident())

    def is_held(self) -> bool:
        with self._lock:
            return bool(self._holders)


class LatchManager:
    """Factory/registry for page latches and per-index tree latches.

    Also tracks, per thread, how many *page* latches are held so the
    paper's "not more than 2 index pages are held latched
    simultaneously" invariant (§2.1) can be asserted in debug mode.
    """

    def __init__(
        self,
        stats: StatsRegistry | None = None,
        debug_max_page_latches: int | None = None,
        timeout: float = 30.0,
    ) -> None:
        self._stats = stats or StatsRegistry(enabled=False)
        self._mutex = threading.Lock()
        self._page_latches: dict[int, Latch] = {}
        self._tree_latches: dict[int, Latch] = {}
        self._held_pages = threading.local()
        self._debug_max = debug_max_page_latches
        self.timeout = timeout
        # Captured once: this table's latches report to the monitor in
        # force when the table was built (see Latch docstring).  Crash
        # rebuilds the table mid-lifetime and recaptures the same
        # round's monitor; a later round's monitor never sees it.
        self._monitor = get_latch_monitor()

    def page_latch(self, page_id: int) -> Latch:
        # Entries are only ever added, so a hit needs no mutex (a dict
        # lookup is atomic); only creation is serialized.
        latch = self._page_latches.get(page_id)
        if latch is None:
            with self._mutex:
                latch = self._page_latches.get(page_id)
                if latch is None:
                    latch = Latch(("page", page_id), self._stats, monitor=self._monitor)
                    self._page_latches[page_id] = latch
        return latch

    def tree_latch(self, index_id: int) -> Latch:
        with self._mutex:
            latch = self._tree_latches.get(index_id)
            if latch is None:
                latch = Latch(("tree", index_id), self._stats, monitor=self._monitor)
                self._tree_latches[index_id] = latch
            return latch

    # -- page-latch helpers that maintain the ≤2 invariant ------------------------

    def _held_set(self) -> set[int]:
        try:
            return self._held_pages.pages
        except AttributeError:
            held = self._held_pages.pages = set()
            return held

    def latch_page(
        self, page_id: int, mode: str, conditional: bool = False
    ) -> Latch:
        latch = self.page_latch(page_id)
        latch.acquire(mode, conditional=conditional, timeout=self.timeout)  # noqa: RPR001 - ownership transfer: caller unlatches
        held = self._held_set()
        held.add(page_id)
        if self._debug_max is not None and len(held) > self._debug_max:
            latch.release()
            held.discard(page_id)
            raise LatchError(
                f"protocol violation: {len(held) + 1} page latches held at once "
                f"(limit {self._debug_max}); held={sorted(held | {page_id})}"
            )
        return latch

    def unlatch_page(self, page_id: int) -> None:
        self.page_latch(page_id).release()
        self._held_set().discard(page_id)

    def pages_held(self) -> set[int]:
        return set(self._held_set())

    def reset_thread_state(self) -> None:
        """Drop this thread's held-page bookkeeping (crash cleanup).

        A crash replaces the latch table wholesale, so releases for
        anything held will never arrive — tell the monitor too.
        """
        self._held_pages.pages = set()
        monitor = self._monitor
        if monitor is not None:
            monitor.reset_held()
