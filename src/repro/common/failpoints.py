"""Deterministic fault / interleaving injection.

The crash and interleaving scenarios of Figures 1, 3, 9, 10, 11 require
stopping a transaction at an exact point inside an index operation —
"after the leaf-level split is logged but before the propagation to the
parent", say.  Production code sprinkles cheap named hooks
(``failpoints.hit("smo.split.after_leaf")``); tests and benchmarks arm
them with one of three actions:

- **crash** — raise :class:`~repro.common.errors.SimulatedCrash`, which
  the harness converts into ``Database.crash()``;
- **pause** — block the hitting thread on an event until the test
  releases it, which is how cross-thread interleavings are constructed;
- **callback** — run arbitrary test code at the hook.

A hook that is not armed costs one dict lookup.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

from repro.common.errors import SimulatedCrash


@dataclass
class _PausePoint:
    """State for a pause-armed failpoint.

    The crash-on-resume flag is guarded by the point's own mutex and is
    only ever written *before* the release event is set (see
    :meth:`finish`), so a worker waking from :attr:`release` observes a
    settled decision — there is no unsynchronized re-read.
    """

    reached: threading.Event = field(default_factory=threading.Event)
    release: threading.Event = field(default_factory=threading.Event)
    #: Hits for which this returns False pass straight through.
    when: Callable[[], bool] | None = None
    _mutex: threading.Lock = field(default_factory=threading.Lock)
    _crash_after: bool = False

    def finish(self, crash: bool) -> None:
        """Settle the outcome (sticky once crash) and wake the worker."""
        with self._mutex:
            self._crash_after = self._crash_after or crash
        self.release.set()

    def should_crash(self) -> bool:
        with self._mutex:
            return self._crash_after


class FailpointRegistry:
    """Per-database registry of armed failpoints."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._crash_points: dict[str, int] = {}
        self._pause_points: dict[str, _PausePoint] = {}
        self._callbacks: dict[str, Callable[[], None]] = {}
        self._hit_counts: dict[str, int] = {}

    # -- arming -----------------------------------------------------------

    def arm_crash(self, name: str, skip: int = 0) -> None:
        """Arm ``name`` to raise :class:`SimulatedCrash`.

        ``skip`` hits pass through before the crash fires (so a test can
        crash on the third split, for example).
        """
        with self._lock:
            self._crash_points[name] = skip

    def arm_pause(
        self, name: str, when: Callable[[], bool] | None = None
    ) -> _PausePoint:
        """Arm ``name`` to block the hitting thread.

        Returns the pause-point handle; the test calls
        :meth:`wait_until_paused` and later :meth:`release`.  With
        ``when``, only a hit for which it returns True blocks (so a
        test can arm up front and park, say, the first flush after the
        fortieth acknowledgement); it runs on the hitting thread.
        """
        point = _PausePoint(when=when)
        with self._lock:
            self._pause_points[name] = point
        return point

    def arm_callback(self, name: str, fn: Callable[[], None]) -> None:
        with self._lock:
            self._callbacks[name] = fn

    def disarm(self, name: str) -> None:
        with self._lock:
            self._crash_points.pop(name, None)
            point = self._pause_points.pop(name, None)
            self._callbacks.pop(name, None)
        if point is not None:
            point.finish(crash=False)

    def disarm_all(self, crash_paused: bool = False) -> None:
        """Disarm everything.  ``crash_paused`` makes any worker parked
        at a pause point resume with :class:`SimulatedCrash` — the
        behaviour a real system failure would have (used by
        ``Database.crash``).

        The registry is emptied atomically under the lock (so a
        concurrent ``arm_pause`` of the same name installs a *new*
        point rather than racing on the one being released), and each
        captured point's outcome is settled before its worker is woken.
        """
        with self._lock:
            self._crash_points.clear()
            self._callbacks.clear()
            points = list(self._pause_points.values())
            self._pause_points.clear()
        for point in points:
            point.finish(crash=crash_paused)

    # -- pause coordination -------------------------------------------------

    def wait_until_paused(self, name: str, timeout: float = 10.0) -> None:
        """Block the *test* thread until a worker reaches the pause point."""
        with self._lock:
            point = self._pause_points.get(name)
        if point is None:
            raise KeyError(f"failpoint {name!r} is not pause-armed")
        if not point.reached.wait(timeout):
            raise TimeoutError(f"failpoint {name!r} was never reached")

    def release(self, name: str) -> None:
        """Unblock the worker paused at ``name`` (and disarm it)."""
        with self._lock:
            point = self._pause_points.pop(name, None)
        if point is not None:
            point.finish(crash=False)

    # -- the hook ---------------------------------------------------------

    def hit(self, name: str) -> None:
        """Called from production code at a named point."""
        with self._lock:
            self._hit_counts[name] = self._hit_counts.get(name, 0) + 1
            crash_skip = self._crash_points.get(name)
            if crash_skip is not None:
                if crash_skip > 0:
                    self._crash_points[name] = crash_skip - 1
                    crash_skip = None
                else:
                    del self._crash_points[name]
            pause = self._pause_points.get(name)
            callback = self._callbacks.get(name)
        if callback is not None:
            callback()
        if crash_skip is not None:
            raise SimulatedCrash(name)
        if pause is not None and (pause.when is None or pause.when()):
            pause.reached.set()
            pause.release.wait()
            if pause.should_crash():
                raise SimulatedCrash(name)

    def hits(self, name: str) -> int:
        """How many times ``name`` has been reached (armed or not)."""
        with self._lock:
            return self._hit_counts.get(name, 0)
