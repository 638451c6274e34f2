"""The lock manager.

Supports the protocol elements ARIES/IM relies on (§1.2, §2):

- modes IS/IX/S/SIX/X with standard compatibility and conversion;
- durations *instant* (wait until grantable, do not retain), *manual*
  (explicit release), and *commit* (held to end of transaction);
- **conditional** requests that fail fast instead of waiting — the
  paper's discipline is: request conditionally while holding latches;
  if not granted, release all latches and repeat unconditionally;
- waits-for-graph deadlock detection with requester-as-victim.

Grant policy: conversions (a holder strengthening its own mode) have
priority over fresh requests; fresh requests are granted FIFO from the
front of the queue, and a fresh request is never granted past an
earlier still-blocked waiter (no barging), so a waiting X cannot be
starved by a stream of S requests.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.common.errors import (
    DeadlockError,
    LockError,
    LockNotGrantedError,
    LockTimeoutError,
)
from repro.common.stats import StatsRegistry
from repro.locks.deadlock import find_cycle
from repro.locks.modes import (
    LockDuration,
    LockMode,
    compatible,
    convert,
    stronger_duration,
)

LockName = tuple

#: Memoized ``lock.requests.<mode>.<duration>`` stat keys — the
#: f-string per request showed up in profiles (bounded: one entry per
#: mode × duration).  Keyed by the members' names: an enum member's
#: ``__hash__`` is a Python-level call.
_REQUEST_STAT_KEYS: dict[tuple[str, str], str] = {}


@dataclass
class _Holder:
    mode: LockMode
    duration: LockDuration


@dataclass
class _Waiter:
    txn_id: int
    mode: LockMode
    is_conversion: bool
    granted: bool = False
    abandoned: bool = False


@dataclass
class _LockHead:
    holders: dict[int, _Holder] = field(default_factory=dict)
    queue: list[_Waiter] = field(default_factory=list)


class LockManager:
    """Hash table of lock heads with blocking, conversion, and detection.

    Requests are counted per ``lock.requests.<mode>.<duration>`` under
    the table mutex and reported through a stats source; the
    incarnation that owns the table calls :meth:`retire` when a crash
    or ``close()`` ends it.
    """

    def __init__(
        self,
        stats: StatsRegistry | None = None,
        timeout: float = 10.0,
    ) -> None:
        self._stats = stats or StatsRegistry()
        self._requests: dict[str, int] = {}
        self._stats.add_source(self._request_counts)
        # One plain mutex guards the table; the condition variable over
        # it is touched only by requests that have to wait.
        self._mutex = threading.Lock()
        self._cond = threading.Condition(self._mutex)
        self._table: dict[LockName, _LockHead] = {}
        self._held_by_txn: dict[int, set[LockName]] = {}
        self.timeout = timeout

    def _request_counts(self) -> dict[str, int]:
        return dict(self._requests)

    def retire(self, retired: object) -> None:
        """Swap the table for ``retired`` — every later request raises —
        and wake every waiter into it."""
        self._stats.retire_source(self._request_counts)
        with self._mutex:
            self._table = self._held_by_txn = retired
            self._cond.notify_all()

    # -- queries ------------------------------------------------------------

    def held_mode(self, txn_id: int, name: LockName) -> LockMode | None:
        """Mode ``txn_id`` holds ``name`` in, or None."""
        with self._mutex:
            head = self._table.get(name)
            if head is None:
                return None
            holder = head.holders.get(txn_id)
            return holder.mode if holder else None

    def locks_of(self, txn_id: int) -> list[tuple[LockName, LockMode, LockDuration]]:
        with self._mutex:
            out = []
            for name in self._held_by_txn.get(txn_id, ()):
                holder = self._table[name].holders[txn_id]
                out.append((name, holder.mode, holder.duration))
            return out

    def lock_count(self, txn_id: int) -> int:
        with self._mutex:
            return len(self._held_by_txn.get(txn_id, ()))

    # -- requesting -----------------------------------------------------------

    def request(
        self,
        txn_id: int,
        name: LockName,
        mode: LockMode,
        duration: LockDuration,
        conditional: bool = False,
    ) -> bool:
        """Request ``name`` in ``mode`` for ``duration``.

        Returns True if the lock was granted without waiting.  Raises
        :class:`LockNotGrantedError` for a failed conditional request,
        :class:`DeadlockError` if waiting would close a cycle, and
        :class:`LockTimeoutError` on timeout.
        """
        memo = (mode._name_, duration._name_)
        stat_key = _REQUEST_STAT_KEYS.get(memo)
        if stat_key is None:
            stat_key = _REQUEST_STAT_KEYS[memo] = f"lock.requests.{mode}.{duration}"
        with self._mutex:
            requests = self._requests
            requests[stat_key] = requests.get(stat_key, 0) + 1
            if self._grant_now(txn_id, name, mode, duration):
                return True
            if conditional:
                self._stats.incr("lock.conditional_misses")
                raise LockNotGrantedError(f"lock {name!r} not immediately grantable")
            head = self._table.setdefault(name, _LockHead())
            waiter = _Waiter(
                txn_id=txn_id, mode=mode, is_conversion=txn_id in head.holders
            )
            head.queue.append(waiter)
            self._stats.incr("lock.waits")
            cycle = find_cycle(self._build_waits_for(), txn_id)
            if cycle is not None:
                head.queue.remove(waiter)
                self._stats.incr("lock.deadlocks")
                raise DeadlockError(txn_id, cycle)
            deadline = time.monotonic() + self.timeout
            self._process_queue(head, name)
            while not waiter.granted:
                # A retired table raises here: how retire() wakes waiters.
                head = self._table[name]
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    waiter.abandoned = True
                    head.queue.remove(waiter)
                    self._process_queue(head, name)
                    self._stats.incr("lock.timeouts")
                    raise LockTimeoutError(
                        f"txn {txn_id} timed out waiting for {name!r} in {mode}"
                    )
                self._cond.wait(remaining)
            # _process_queue installed the holder entry; fix up duration.
            self._finish_grant(head, txn_id, name, mode, duration)
            self._stats.record_lock(
                txn_id, name, str(mode), str(duration), granted_immediately=False
            )
            return False

    # -- releasing --------------------------------------------------------------

    def release(self, txn_id: int, name: LockName) -> None:
        """Manually release one lock."""
        with self._mutex:
            head = self._table.get(name)
            if head is None or txn_id not in head.holders:
                raise LockError(f"txn {txn_id} does not hold {name!r}")
            del head.holders[txn_id]
            self._held_by_txn.get(txn_id, set()).discard(name)
            if head.queue:
                self._process_queue(head, name)
            self._maybe_gc(name, head)

    def release_all(self, txn_id: int) -> int:
        """Release every lock of ``txn_id`` (commit / end of rollback).

        Returns the number of locks released.
        """
        with self._mutex:
            names = list(self._held_by_txn.pop(txn_id, ()))
            for name in names:
                head = self._table[name]
                head.holders.pop(txn_id, None)
                if head.queue:
                    self._process_queue(head, name)
                self._maybe_gc(name, head)
            return len(names)

    # -- internals -----------------------------------------------------------------

    def _grant_now(
        self, txn_id: int, name: LockName, mode: LockMode, duration: LockDuration
    ) -> bool:
        """Grant the request if nothing stands in its way.  Caller
        holds ``_mutex``."""
        head = self._table.get(name)
        if head is None:
            # Nobody holds or waits for the name: there is nothing to
            # check, and an instant-duration request leaves no trace.
            if duration is not LockDuration.INSTANT:
                self._table[name] = _LockHead(
                    holders={txn_id: _Holder(mode=mode, duration=duration)}
                )
                self._held_by_txn.setdefault(txn_id, set()).add(name)
        elif self._grantable_now(head, txn_id, mode):
            self._grant(head, txn_id, name, mode, duration)
        else:
            return False
        if self._stats.audit_locks:
            self._stats.record_lock(
                txn_id, name, str(mode), str(duration), granted_immediately=True
            )
        return True

    def _grantable_now(self, head: _LockHead, txn_id: int, mode: LockMode) -> bool:
        holder = head.holders.get(txn_id)
        if holder is not None:
            target = convert(holder.mode, mode)
            return all(
                compatible(h.mode, target)
                for t, h in head.holders.items()
                if t != txn_id
            )
        # Fresh request: no barging past queued waiters.
        if any(not w.granted and not w.abandoned for w in head.queue):
            return False
        return all(compatible(h.mode, mode) for h in head.holders.values())

    def _grant(
        self,
        head: _LockHead,
        txn_id: int,
        name: LockName,
        mode: LockMode,
        duration: LockDuration,
    ) -> None:
        holder = head.holders.get(txn_id)
        if duration is LockDuration.INSTANT and holder is None:
            # Instant-duration: the wait (if any) already happened; the
            # lock is not retained.
            self._maybe_gc(name, head)
            return
        if holder is None:
            head.holders[txn_id] = _Holder(mode=mode, duration=duration)
            self._held_by_txn.setdefault(txn_id, set()).add(name)
        else:
            holder.mode = convert(holder.mode, mode)
            if duration is not LockDuration.INSTANT:
                holder.duration = stronger_duration(holder.duration, duration)

    def _finish_grant(
        self,
        head: _LockHead,
        txn_id: int,
        name: LockName,
        mode: LockMode,
        duration: LockDuration,
    ) -> None:
        """Adjust holder state after a queued grant.

        ``_process_queue`` grants fresh waiters with INSTANT duration as
        a placeholder; the waking thread applies its real duration here
        (or drops the lock entirely for a true instant-duration
        request).  Instant *conversions* keep the converted mode at the
        original duration — conservative but safe.
        """
        holder = head.holders.get(txn_id)
        if holder is None:
            return
        if duration is LockDuration.INSTANT and holder.duration is LockDuration.INSTANT:
            del head.holders[txn_id]
            self._held_by_txn.get(txn_id, set()).discard(name)
            self._process_queue(head, name)
            self._maybe_gc(name, head)
        elif duration is not LockDuration.INSTANT:
            holder.duration = stronger_duration(holder.duration, duration)

    def _process_queue(self, head: _LockHead, name: LockName) -> None:
        """Grant whatever the queue allows; wake granted waiters."""
        woke = False
        # Pass 1: conversions anywhere in the queue.
        for waiter in head.queue:
            if waiter.granted or waiter.abandoned or not waiter.is_conversion:
                continue
            holder = head.holders.get(waiter.txn_id)
            if holder is None:
                # Holder vanished (rolled back); treat as fresh below.
                waiter.is_conversion = False
                continue
            target = convert(holder.mode, waiter.mode)
            if all(
                compatible(h.mode, target)
                for t, h in head.holders.items()
                if t != waiter.txn_id
            ):
                holder.mode = target
                waiter.granted = True
                woke = True
        # Pass 2: fresh requests FIFO from the front, no barging.
        for waiter in head.queue:
            if waiter.granted or waiter.abandoned:
                continue
            if waiter.is_conversion:
                break  # a blocked conversion blocks everything behind it
            if all(compatible(h.mode, waiter.mode) for h in head.holders.values()):
                head.holders[waiter.txn_id] = _Holder(
                    mode=waiter.mode, duration=LockDuration.INSTANT
                )
                self._held_by_txn.setdefault(waiter.txn_id, set()).add(name)
                waiter.granted = True
                woke = True
            else:
                break
        head.queue[:] = [w for w in head.queue if not w.granted and not w.abandoned]
        if woke:
            self._cond.notify_all()

    def _build_waits_for(self) -> dict[int, set[int]]:
        """Waits-for graph: waiter → holders/earlier-waiters blocking it."""
        graph: dict[int, set[int]] = {}
        for head in self._table.values():
            for position, waiter in enumerate(head.queue):
                if waiter.granted or waiter.abandoned:
                    continue
                blockers: set[int] = set()
                holder = head.holders.get(waiter.txn_id)
                target = (
                    convert(holder.mode, waiter.mode) if holder else waiter.mode
                )
                for txn_id, h in head.holders.items():
                    if txn_id != waiter.txn_id and not compatible(h.mode, target):
                        blockers.add(txn_id)
                # Conversions are granted regardless of queue position,
                # so only fresh requests wait behind earlier waiters.
                if not waiter.is_conversion:
                    for earlier in head.queue[:position]:
                        if (
                            not earlier.granted
                            and not earlier.abandoned
                            and earlier.txn_id != waiter.txn_id
                            and not compatible(earlier.mode, target)
                        ):
                            blockers.add(earlier.txn_id)
                if blockers:
                    graph.setdefault(waiter.txn_id, set()).update(blockers)
        return graph

    def _maybe_gc(self, name: LockName, head: _LockHead) -> None:
        if not head.holders and not head.queue:
            self._table.pop(name, None)
