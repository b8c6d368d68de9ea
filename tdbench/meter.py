"""Timed-region clock that corrects for the machine's speed as it drifts.

On a shared two-core machine the same solve can take 30% longer from one
second to the next because of load outside this process.  The meter splits
the timed region into stretches of at least ``STRETCH_S`` seconds.  Between
two stretches, at the boundary between two library calls, it runs a fixed
probe: a stdlib loop of dict and integer operations, the same kinds of work
the solvers do.  Each stretch is scaled by ``REFERENCE_PROBE_S`` divided by
the mean of the probes on either side, so it counts in seconds at the
reference speed.  The probes' own time is left out of both the raw and the
scaled totals.  ``scale`` applies the same correction to the worker's
set-up time.
"""

from __future__ import annotations

from time import perf_counter

STRETCH_S = 0.25
# About the median probe time on a 2-core Intel Xeon VM with Python 3.11.
# It only sets the unit of the scaled time, so it must never change.
REFERENCE_PROBE_S = 0.04


def probe() -> float:
    start = perf_counter()
    table: dict[int, int] = {}
    for i in range(120000):
        key = (i * 2654435761) & 0xFFF
        table[key] = table.get(key ^ 1, 0) + (key >> 3 | 1 << 20).bit_count()
    return perf_counter() - start


def scale(seconds: float, probe_before: float, probe_after: float) -> float:
    """``seconds`` of work done between two probes, in seconds at the reference speed."""
    return seconds * REFERENCE_PROBE_S / ((probe_before + probe_after) / 2)


class Meter:
    """Raw and speed-scaled time of one timed region.

    With ``probing`` off the meter only sums raw time.  Traced runs use it
    that way, because their probes would land in the layer accounting.
    """

    def __init__(self, probing: bool = True):
        self.probing = probing
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self.probes = 0
        self._last_probe = 0.0
        self._mark = 0.0

    def start(self) -> float:
        """Start the first stretch; returns the probe time taken just before it (0 without probing)."""
        if self.probing:
            self._last_probe = self._probe()
        self._mark = perf_counter()
        return self._last_probe

    def tick(self) -> None:
        """Close the current stretch if it is long enough; call between library calls."""
        if perf_counter() - self._mark >= STRETCH_S:
            self.stop()
            self._mark = perf_counter()

    def stop(self) -> None:
        stretch = perf_counter() - self._mark
        self.raw_s += stretch
        if self.probing:
            current = self._probe()
            self.scaled_s += scale(stretch, self._last_probe, current)
            self._last_probe = current
        else:
            self.scaled_s += stretch

    def _probe(self) -> float:
        self.probes += 1
        return probe()
