"""The machine's speed, timed while the benchmark measures.

On a shared host the same code runs up to 1.8 times slower for seconds or
minutes at a time, whatever the program does. While a worker measures, an
interval timer interrupts it every PROBE_EVERY seconds to time a fixed
pure-Python probe, keeping the fastest of PROBE_REPEATS runs so that one
preempted run does not count. An interval of the benchmark is then read at a
reference speed: its time less the probes that ran inside it, times
REFERENCE_S over the mean time of those probes, the last one before it and
the first one after it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

clock = time.perf_counter
PROBE_EVERY = 0.1
PROBE_REPEATS = 3
# The probe's time at the reference speed: about its time at the fast
# speed of the 2-vCPU host the benchmark was written on.
REFERENCE_S = 0.0005


_LIST = list(range(20000))


def probe() -> int:
    """Fixed work of about half a millisecond at the reference speed.

    Integer bit operations and dict traffic, then list copies and a strided
    walk, like the program's own mix. Of the probes tried, this one's time
    followed the time of `preimage_one` and `preimages_deduce` calls most
    closely as the machine's speed changed.
    """
    acc = 0
    seen = {}
    for i in range(1500):
        x = (i * 2654435761) & 0xFFFF
        acc ^= (x >> 3) | (x & 7) << 13
        seen[x & 255] = acc
    copy = _LIST[:]
    for i in range(0, len(copy), 13):
        acc += copy[i]
    return acc + len(seen) + len(copy[:])


class Speed:
    """Probes of one process, in the order they ran.

    Used as a context manager: it probes once on entry, then on every timer
    tick, and once more on exit, so every interval inside has a probe before
    and after it.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.took: list[float] = []

    def _probe(self, _signum=None, _frame=None) -> None:
        start = clock()
        fastest = float("inf")
        for _ in range(PROBE_REPEATS):
            t0 = clock()
            probe()
            fastest = min(fastest, clock() - t0)
        self.starts.append(start)
        self.ends.append(clock())
        self.took.append(fastest)

    def __enter__(self) -> Speed:
        self._probe()
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY, PROBE_EVERY)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds from t0 to t1, less the probes inside, read at the reference speed.

        A probe runs whole between two bytecodes of the benchmark, so it lies
        either inside the interval or outside it.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.ends, t1)
        net = t1 - t0 - sum(self.ends[k] - self.starts[k] for k in range(lo, hi))
        return net * REFERENCE_S / statistics.fmean(self.took[max(lo - 1, 0):hi + 1])
