"""How fast the machine was while a stretch of the run was measured.

One core of this shared 2-CPU sandbox alternates, every few seconds,
between two speeds about 27% apart (a fixed pure-Python loop takes 8.1
or 10.3 ms), and the share of time spent at each drifts over minutes.
Single-thread throughput follows the loop, so ten raw 10 s runs of one
tree spread 5-15% and an hour later the tree runs 12% faster: no
run length the driver's budget allows averages it out.

So every caller runs a short fixed loop between its operations (about
1 ms in every 50 ms, never inside an operation), and every stretch of
the run (a slice, a set-up, one restart) is reported in *reference
seconds*: its wall time x (``REFERENCE_SECONDS`` / the median time the
loop took during that stretch).  The loop is timed in the thread's own
CPU time, so waiting for the interpreter lock while other threads run
is not taken for a slow machine.  ``REFERENCE_SECONDS`` only fixes the
unit — the factor is about 1 on this box at its slower speed; each run
records the factor it saw (``host_speed``), and counts and per-layer
span times are never scaled.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter, thread_time

#: CPU seconds the loop takes on the reference machine.
REFERENCE_SECONDS = 0.001
#: Least time between two samples of one caller.
INTERVAL_SECONDS = 0.05


def _spin() -> int:
    x = 0
    for i in range(20_000):
        x += i * i % 7
    return x


class SpeedMeter:
    """One thread's samples of the loop since the last ``take``."""

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._due = 0.0
        self._last = 1.0

    def sample(self) -> None:
        start = thread_time()
        _spin()
        self._samples.append(thread_time() - start)
        self._due = perf_counter() + INTERVAL_SECONDS

    def maybe_sample(self) -> None:
        if perf_counter() >= self._due:
            self.sample()

    def take(self) -> float:
        """Reference seconds per wall second over the samples since the
        last call, which are then dropped (the last factor again when
        there is none)."""
        if self._samples:
            self._last = REFERENCE_SECONDS / median(self._samples)
            self._samples.clear()
        return self._last
