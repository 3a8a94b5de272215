"""The host's speed, sampled while a child works.

The measurement host is a shared VM.  Its speed drifts by 10-20% over
minutes, and for minutes at a time the simulator runs up to 2.4 times
slower while another tenant loads the machine.  Every reported time
would move with it, so a child scales its times to a reference speed:

* every ``INTERVAL`` seconds a ``SIGALRM`` handler runs a fixed slice of
  interpreter work twice and times the second run.  The slice is the
  benchmark's own code, so no change to the program moves it.  The
  first run refills the caches the program's work evicted, so the
  timed run measures the host, not the workload's footprint;
* over a window (set-up, or the pass), the mean timed slice over
  ``REFERENCE_SLICE_S`` is how much slower the host ran than the
  reference host, on average, in that window;
* a time scaled to the reference is the raw time, less the handler's
  own time, divided by that ratio.

The samples must come from the processes doing the work: pool workers
run their own sampler, since the parent, mostly waiting, would measure
how it shares a core with them.  The slice allocates no containers, so
it never triggers the garbage collector in the middle of the program's
work.  Timers are not inherited across ``fork``/``exec``.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Tuple

#: seconds between samples
INTERVAL = 0.05
#: mean timed slice on the reference host (a 2-vCPU VM with Python
#: 3.11) at its usual speed; scaled times read as seconds on that host
REFERENCE_SLICE_S = 0.0001
#: iterations of the slice loop
SLICE_ITERATIONS = 600


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value


_TABLE = {i: _Node(i, i & 63) for i in range(256)}


def reference_slice() -> int:
    """Attribute reads and writes, dict lookups and integer arithmetic:
    the shape of the simulator's hot path, without allocation."""
    table = _TABLE
    total = 0
    for i in range(SLICE_ITERATIONS):
        node = table[(i * 37) & 255]
        node.value = (node.value + i) & 1023
        total += node.value ^ node.key
    return total


class Sampler:
    """Times a reference slice every ``INTERVAL`` seconds until stopped."""

    def __init__(self):
        #: ``(start, timed slice seconds, handler seconds)`` per sample
        self.samples: List[Tuple[float, float, float]] = []

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, _signum=None, _frame=None) -> None:
        start = time.perf_counter()
        reference_slice()
        timed = time.perf_counter()
        reference_slice()
        end = time.perf_counter()
        self.samples.append((start, end - timed, end - start))

    def burst(self, seconds: float) -> None:
        """Sample back to back for ``seconds``: the speed right now, for
        work too short for the timer to sample often."""
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            self._sample()

    def own_seconds(self, start: float, end: float) -> float:
        """Seconds the handler took in ``[start, end]``."""
        return sum(spent for t, _, spent in self.samples if start <= t < end)


def slowdown(samples, start: float, end: float) -> Tuple[float, int]:
    """``(mean timed slice / REFERENCE_SLICE_S, sample count)`` over the
    samples taken in ``[start, end]``; 1.0 without any."""
    timed = [seconds for t, seconds, _ in samples if start <= t < end]
    return statistics.fmean(timed or [REFERENCE_SLICE_S]) \
        / REFERENCE_SLICE_S, len(timed)
