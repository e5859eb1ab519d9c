"""Machine-speed probe: every timing is scaled to one nominal speed.

On a shared host the interpreter's speed drifts by about +-25 % within
seconds, while the same fixed loop timed next to a unit slows down with it
(correlation 0.84 in a paired test).  `SpeedProbe` times a short loop every
PERIOD_S from a timer signal while units run; a unit's time excludes the
probes and is scaled by NOMINAL_S over the mean loop time within WINDOW_S
of the unit.  NOMINAL_S is the loop's median on the machine that defined
the benchmark, so scaled times read as times on that machine.
"""

from __future__ import annotations

import bisect
import signal
import time

LOOP_ITERATIONS = 2000
NOMINAL_S = 0.0003
PERIOD_S = 0.01
WINDOW_S = 0.03


def loop_time() -> float:
    """Time one fixed interpreter loop of dict stores and small tuples."""
    t0 = time.perf_counter()
    d = {}
    for i in range(LOOP_ITERATIONS):
        d[i & 63] = (i, i * 7 % 13)
    return time.perf_counter() - t0


def scale_now() -> float:
    """Scale factor from ten probes taken right now, outside any timer."""
    return NOMINAL_S / (sum(loop_time() for _ in range(10)) / 10)


class SpeedProbe:
    """Samples the loop time every PERIOD_S while the `with` block runs.

    `on_pause(seconds)` is told how long each probe interrupted the program,
    so a span clock can leave that time out.
    """

    def __init__(self, on_pause=None):
        self.starts: list = []
        self.durations: list = []
        self.spent = 0.0
        self._on_pause = on_pause
        self._previous = None

    def sample(self, *_) -> None:
        t0 = time.perf_counter()
        self.durations.append(loop_time())
        self.starts.append(t0)
        spent = time.perf_counter() - t0
        self.spent += spent
        if self._on_pause is not None:
            self._on_pause(spent)

    def __enter__(self) -> "SpeedProbe":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the mean loop time within WINDOW_S of [start, end]."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        if lo == hi:  # no probe that close: take the nearest one
            lo = min(lo, len(self.starts) - 1)
            hi = lo + 1
        window = self.durations[lo:hi]
        return NOMINAL_S / (sum(window) / len(window))
