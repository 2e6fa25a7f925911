"""Host-speed probe that runs inside a workload process, between its bytecodes.

The benchmark's host is a shared VM whose speed changes by up to 2x in
stretches of seconds to minutes, unevenly across its CPUs, so one run's
samples can all land in a slow stretch.  A timer signal makes the
workload process itself run one fixed unit of interpreter work
(:func:`spin`) every ``INTERVAL_S``; the unit then meets exactly the
CPU, host load and memory state the program meets, and the mean unit
time over a sample says how fast the host was during it.  ``run.py``
scales each sample's times by ``PROBE_REF_S`` over that mean.

Timed against 30 whole ``fluid-600`` samples on a 2-core Xeon VM that
took 6.1 to 11.2 s each, the log of this unit's mean time tracked the
log of the sample's wall time with correlation 0.97 and slope 0.97, and
the samples' spread (IQR / median) fell from 22% to 5%.  The same kind
of unit in its own process on the other CPU tracked with correlation
-0.1 to 0.86, depending on the hour, and one run between samples on the
same CPU with 0.64 and slope 0.4-0.6.

The unit runs no ``repro`` code, so a change to the program moves the
scaled times as it moves the raw ones, up to one effect: the unit shares
the process's allocator and caches, so a change to the program's memory
behaviour can move the unit's time a little.  In the host's fast
stretches a unit took about the same inside ``fluid-600`` samples
(80 MB) as in set-up-only processes, 0.22-0.25 ms.  The handler only
reads the clock and works on its own objects, so the simulation's
results are unchanged (``run.py`` checks every sample's outputs).
"""

from __future__ import annotations

import heapq
import signal
import time

#: time between two units, from a wall-clock timer
INTERVAL_S = 0.01
#: heap operations per unit: 0.2-0.4 ms on a 2-core Xeon VM, so the
#: probe takes about 3% of a process's time
ROUNDS = 400
#: the unit's mean time at the speed scaled times are read at: about
#: its time in the host's fast stretches
PROBE_REF_S = 0.00025


def spin() -> dict:
    """One unit of the work the simulator's event loop is made of:
    tuple heap pushes and pops, small allocations and dict updates."""
    heap = []
    counts = {}
    for i in range(ROUNDS):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        if len(heap) > 128:
            _, j = heapq.heappop(heap)
            counts[j & 127] = counts.get(j & 127, 0) + 1
    return counts


class TimerProbe:
    """Runs :func:`spin` on ``SIGALRM`` every ``INTERVAL_S`` between
    :meth:`start` and :meth:`stop`, counting units and their time."""

    def __init__(self):
        self.units = 0
        self.busy_s = 0.0

    def _tick(self, signum, frame) -> None:
        started = time.perf_counter()
        spin()
        self.busy_s += time.perf_counter() - started
        self.units += 1

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def at_reference_speed(report: dict, seconds: float) -> float:
    """``seconds`` of a probed worker's ``report``, less the probe's own
    share, read at the speed where a unit takes ``PROBE_REF_S``.  The
    report must count at least one unit."""
    units, busy = report["probe_units"], report["probe_busy_s"]
    return seconds * (1.0 - busy / report["wall_s"]) * PROBE_REF_S / (busy / units)
