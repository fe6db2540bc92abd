"""Host speed, sampled through a run, to put timings on one scale.

On a shared VM a CPU's speed swings by 40-60% over seconds to minutes
as neighbours come and go, and a pure arithmetic loop swings with it,
so wall times of the same work differ by that much from run to run.
:class:`HostSpeed` times a fixed pure-Python kernel (dict, tuple,
string and sort work) next to every timed sample.  A sample in seconds
times :meth:`HostSpeed.scale` is its time at the kernel's nominal speed:
``seconds × NOMINAL_S ÷ kernel time``, with the kernel time taken as the
median of the last few kernel runs.

The program never runs the kernel, so a change to the program moves the
scaled times as it moves the raw ones.
"""

from __future__ import annotations

import gc
import statistics
from collections import deque

from fqbench.common import clock

#: Kernel time taken as the host's nominal speed (about the kernel's
#: time on a 2-CPU x86 VM when its CPUs are not boosted).
NOMINAL_S = 1.0e-3
#: Kernel runs the current speed is the median of.
WINDOW = 7


def kernel() -> int:
    """About 1 ms of interpreter work on small objects: build, scan and
    sort dicts of tuples and strings."""
    total = 0
    for _ in range(3):
        table = {}
        for i in range(400):
            table[(i, i * 7 % 13)] = "%d" % i
        for key, value in table.items():
            total += key[0] ^ len(value)
        total += sorted(table, key=lambda key: key[1])[0][0]
    return total


class HostSpeed:
    def __init__(self, window: int = WINDOW):
        self._times: deque[float] = deque(maxlen=window)
        #: Every kernel time, for the run's notes.
        self.history: list[float] = []

    def sample(self) -> None:
        # The kernel's objects are freed before the collector is back
        # on, so it adds no collections to the program's.
        gc.disable()
        try:
            start = clock()
            kernel()
            elapsed = clock() - start
        finally:
            gc.enable()
        self._times.append(elapsed)
        self.history.append(elapsed)

    def scale(self) -> float:
        """Factor from seconds measured now to seconds at nominal speed."""
        if not self._times:
            self.sample()
        return NOMINAL_S / statistics.median(self._times)
