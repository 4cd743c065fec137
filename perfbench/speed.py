"""Host-speed normalisation for times measured inside a worker.

The benchmark host is shared: its speed flips between a fast state and a
state about 1.7-1.9x slower, in phases of a few seconds, and the slow state
shows in process CPU time as much as in wall time.  Medians cannot remove
that from a 25-second pass that runs once per run.

So while a pass runs, SIGALRM fires every PROBE_INTERVAL_S in the worker's
own (only) thread and times a fixed probe that does the program's kind of
work: a sparse product of dicts with tuple keys and Fraction coefficients.
Each stretch of program time between two probes is scaled by
PROBE_NOMINAL_S / (probe duration around it), and the probes' own time is
left out.  The result is the time the program would have taken at the
probe's nominal speed; `raw_s` keeps the plain wall time beside it.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

PROBE_INTERVAL_S = 0.1
# Fast-state duration of one probe on the reference host (Intel Xeon,
# 2 vCPUs, Python 3.11.7): the 5th-10th percentile of 3,457 samples.
PROBE_NOMINAL_S = 1.0e-3
# Probes slower than this ran outside the fast state (the slow state takes 1.7-2.1 ms);
# used only to report how much of a pass the host spent slow.
FAST_STATE_MAX_S = 1.2e-3

_PROBE_POLY = {(i, j, k): Fraction(i + 1, j + 2) for i in range(3) for j in range(3) for k in range(2)}


def _probe_work() -> dict:
    out = {}
    for ea, ca in _PROBE_POLY.items():
        for eb, cb in _PROBE_POLY.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            out[e] = out.get(e, 0) + ca * cb
    return out


def probe_durations(count: int) -> list[float]:
    """Durations of `count` back-to-back probes."""
    out = []
    for _ in range(count):
        t0 = time.perf_counter()
        _probe_work()
        out.append(time.perf_counter() - t0)
    return out


class SpeedProbe:
    """Context manager sampling host speed; `normalized(a, b)` rescales an interval."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _probe(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        _probe_work()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()

    def normalized(self, a: float, b: float) -> float:
        """Program time inside [a, b] at nominal speed, probe time excluded.

        Probe k covers the gap from its own end to the next probe's start;
        the speed in that gap is the mean duration of the two probes around it.
        """
        starts, durs = self.starts, self.durations
        total = 0.0
        k = max(bisect.bisect_right(starts, a) - 1, 0)
        while k < len(starts) - 1 and starts[k] < b:
            lo = max(a, starts[k] + durs[k])
            hi = min(b, starts[k + 1])
            if hi > lo:
                total += (hi - lo) * PROBE_NOMINAL_S / ((durs[k] + durs[k + 1]) / 2)
            k += 1
        return total
