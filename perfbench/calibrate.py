"""Wall time, and wall time at a reference machine speed.

On the 2-core machine this benchmark was tuned on, the same computation
takes from 0.52 s to 1.01 s within one minute, and 20-second averages
drift by 20 % or more between minutes: other tenants share the cores.
Wall time alone then measures the neighbours as much as the engine.

So while a round runs, a `SpeedSampler` thread wakes every 50 ms and
times a fixed probe of about a millisecond (dict updates over
Fractions, the kind of work the engine does; the probe is benchmark code,
so a change to the engine does not change it).  While the probe runs the
engine waits for the interpreter lock, so the probe sees the speed the
engine would have had at that moment.  For a timed interval, `measure`
gives its wall time less the probe time inside it, and that wall time
scaled by NOMINAL_S over the mean probe time around it (inside the
interval, padded by PAD_S on each side; `SpeedSampler.measure`):

    reference seconds = wall seconds * NOMINAL_S / mean probe seconds.

NOMINAL_S is close to the probe's median on that machine, so reference
seconds read about as wall seconds there.  Measured there, the sampling
cut the variation of a 0.6 s boundary build from 14.5 % to 8.3 %
(coefficient of variation over 98 builds in one minute).
"""

from __future__ import annotations

import bisect
import itertools
import random
import statistics
import threading
import time
from fractions import Fraction

NOMINAL_S = 0.0008
EVERY_S = 0.05
PAD_S = 0.25

_rng = random.Random(20170508)
_ROWS = [
    {_rng.randrange(40): Fraction(_rng.randint(-4, 4), _rng.randint(1, 4)) for _ in range(4)}
    for _ in range(12)
]


def probe():
    """Seconds that a fixed millisecond of Fraction dict work takes now."""
    start = time.perf_counter()
    for _ in range(5):
        acc = {}
        for row in _ROWS:
            for k, x in row.items():
                nv = acc.get(k, 0) + x * x
                if nv:
                    acc[k] = nv
                else:
                    acc.pop(k, None)
    return time.perf_counter() - start


class SpeedSampler:
    """Background thread that times `probe` every EVERY_S seconds."""

    def __init__(self):
        self.samples = []  # (start, seconds), in time order
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(EVERY_S):
            start = time.perf_counter()
            self.samples.append((start, probe()))

    def start(self):
        self._thread.start()
        return self

    def stop(self):
        """Stop sampling; `measure` may be called from then on."""
        self._stop.set()
        self._thread.join()
        self._times = [t for t, _ in self.samples]
        self._sums = list(itertools.accumulate((s for _, s in self.samples), initial=0.0))
        self._median = statistics.median(s for _, s in self.samples)

    def _total(self, lo, hi):
        """(count, summed seconds) of the samples starting in [lo, hi]."""
        i = bisect.bisect_left(self._times, lo)
        j = bisect.bisect_right(self._times, hi)
        return j - i, self._sums[j] - self._sums[i]

    def measure(self, start, end):
        """(wall seconds, reference seconds) of the interval [start, end]."""
        _, pauses = self._total(start, end)
        count, near = self._total(start - PAD_S, end + PAD_S)
        speed = near / count if count else self._median
        wall = end - start - pauses
        return wall, wall * NOMINAL_S / speed
