"""Speed of the shared host, read while the benchmark runs.

The benchmark gets a few cores of a shared host whose speed drifts by a
third or more within a minute as other tenants come and go: with identical
inputs, one ``table`` command took 12 s and the next 19 s, and the blocks
set-up read 26 s for a quarter of an hour and then 34 s.  Longer runs do not
average this out, since the drift is slower than a run.  So the worker times
a fixed pure-Python loop (a reading) as it runs, and the compared set-up
time and throughput are scaled to a reference host: a time is multiplied
by ``NOMINAL_S`` over the mean reading, and a throughput divided by it.

Set-up is followed by ``SETUP_READINGS`` readings, outside its time.  In the
timed phase, items that run in the worker's own process are followed by a
reading at most every ``GAP_S`` seconds (``read_between_items``), on the core
the items run on; the reading's time is not counted as item time.  While an
item runs in a child process, the worker, which only waits, reads once a
second on a thread (``with HostSpeed():``), on the other core.

The scaling assumes the program under test keeps to one core, as the
benchmark sets it up to (``LAPLACE_MULTIPOLE_WORKERS`` removed, BLAS and
OpenMP at one thread).  The unscaled figures are in the report line.
"""
from __future__ import annotations

import math
import statistics
import threading
import time

# Reference-loop time on the reference host: about what a reading takes on
# a 2-vCPU cloud host.
NOMINAL_S = 0.010
PERIOD_S = 1.0        # thread: one reading per second, ~1% of a core
GAP_S = 0.2           # between items: at most one reading per 0.2 s
SETUP_READINGS = 5    # right after set-up


def reference_loop(n: int = 100_000) -> int:
    s = 0
    for i in range(n):
        s += i * i % 7
    return s


class HostSpeed:
    """Readings of the reference loop: (monotonic midpoint, seconds)."""

    def __init__(self):
        self.samples = []
        self._last = -math.inf
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def read(self) -> None:
        t = time.monotonic()
        reference_loop()
        e = time.monotonic()
        self.samples.append(((t + e) / 2, e - t))
        self._last = e

    def read_between_items(self) -> None:
        """A reading, unless the last one ended less than ``GAP_S`` ago."""
        if time.monotonic() - self._last >= GAP_S:
            self.read()

    def _sample(self) -> None:
        while True:
            self.read()
            if self._stop.wait(PERIOD_S):
                return

    def __enter__(self) -> "HostSpeed":
        """Read once a second on a thread until exit."""
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def slowness(self) -> float:
        """Mean reading over ``NOMINAL_S``: 1 on the reference host, above 1
        on a slower one."""
        if not self.samples:
            raise ValueError("no host-speed reading")
        return statistics.fmean(d for _, d in self.samples) / NOMINAL_S
