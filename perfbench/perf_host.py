"""The host's speed, from a fixed probe timed between operations.

The benchmark runs on shared virtual machines whose speed drifts by up
to 2x over seconds to minutes: a neighbour's load slows every
instruction of this one, the program's and a bare loop's alike.  A
set of runs that straddles such a drift spreads wider than any bound
a regression gate could use.  So every run times a fixed pure-Python
probe (interpreter loop, object allocation, heap operations) between
its operations, about every :data:`EVERY_S` seconds of the run, and
every timing the run reports is scaled to a reference host speed::

    scaled = measured * REFERENCE_PROBE_S / mean(probe times)

where the probe times are those taken in the same phase of the run as
the timing (set-up, cold operations, warm operations, ...), or every
probe of the run where a phase's own probes read noisy (see
``README.md``).

The probe is the benchmark's own code and calls nothing in the
program, so a change to the program cannot move it.  It runs only
while no operation of the program is in flight, with the garbage
collector off, so the program's heap does not leak into it either.
Probe time is never part of a timed operation.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time
from typing import Dict, List

#: Roughly the probe's mean time on the 2-vCPU Firecracker VM
#: (2.0 GHz) the benchmark was tuned on.  Scaled timings read as they
#: would there.
REFERENCE_PROBE_S = 0.007

#: Seconds of the run between two probes.
EVERY_S = 0.25

#: Most probes one tick makes up for after a long operation.
MAX_CATCH_UP = 8


class _Item:
    __slots__ = ("key", "weight")

    def __init__(self, key: int, weight: float) -> None:
        self.key = key
        self.weight = weight


def probe_kernel() -> float:
    """A fixed mix of what the program's hot paths do: an interpreter
    loop, small-object allocation and heap operations."""
    acc = 0
    for i in range(20000):
        acc += i & 7
    heap: List[tuple] = []
    for i in range(3000):
        heapq.heappush(heap, ((i * 7919) % 1009, i, _Item(i, i * 0.5)))
    total = 0.0
    while heap:
        _t, _i, item = heapq.heappop(heap)
        total += item.weight
    return acc + total


def probe() -> float:
    """Seconds one :func:`probe_kernel` takes, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        probe_kernel()
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Probe samples of one run, by phase, and the scale they give the
    timings measured in each phase."""

    def __init__(self) -> None:
        self.every = EVERY_S
        #: phase name -> probe times taken in it
        self.samples: Dict[str, List[float]] = {}
        #: seconds spent probing, so callers can leave it out of a wall
        self.spent = 0.0
        self._last = 0.0

    def tick(self, phase: str, force: bool = False) -> None:
        """Probe once for every ``every`` seconds since the last probe
        (at most :data:`MAX_CATCH_UP` times; at least once with
        ``force``), so that the probes sample the run evenly, and file
        the probes under ``phase``.  Call only between operations."""
        now = time.perf_counter()
        owed = int((now - self._last) / self.every) if self._last else 1
        owed = min(MAX_CATCH_UP, max(owed, int(force)))
        for _ in range(owed):
            self.samples.setdefault(phase, []).append(probe())
        if owed:
            self._last = time.perf_counter()
            self.spent += self._last - now

    def probe_s(self, *phases: str) -> float:
        """The mean probe time over ``phases`` (every phase if none, or
        if they hold no probe).  The mean, not the median: a timing
        adds up the host's slow moments as well as its fast ones."""
        xs = [x for p in phases for x in self.samples.get(p, [])]
        if not xs:
            xs = [x for v in self.samples.values() for x in v]
        return statistics.fmean(xs)

    def scale(self, *phases: str) -> float:
        """The factor that turns a time measured in ``phases`` into a
        time at the reference host's speed (below 1 when this host ran
        slower)."""
        return REFERENCE_PROBE_S / self.probe_s(*phases)
