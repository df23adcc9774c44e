"""Host-speed correction for the untraced passes.

The reference host is a shared 2-vCPU VM whose speed drifts by +-15% over
seconds to minutes — more than any bound worth setting.  So an untraced
pass interleaves slices of one fixed pure-Python loop with the work and
scales each stretch of work by how fast the slices on either side of it
ran.  Corrected times are in seconds of a host on which a slice takes
``NOMINAL_SLICE_S`` (the reference host when quiet); the raw times are
kept beside them in every output.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable

ITERATIONS = 300_000
NOMINAL_SLICE_S = 0.020
#: No two slices closer than this, so calibration stays under ~15% of a pass.
MIN_SLICE_GAP_S = 0.15
#: Slices averaged at each end of a pass (a one-job pass has no others).
END_SLICES = 4


def calibration_slice() -> float:
    """Host seconds one slice of the loop takes right now."""
    start = time.perf_counter()
    total = 0
    for i in range(ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def at_nominal_speed(took: float, slice_before: float,
                     slice_after: float) -> float:
    return took * 2 * NOMINAL_SLICE_S / (slice_before + slice_after)


class Calibrator:
    """Times a pass in stretches of work separated by calibration slices.

    ``tick()`` is called between jobs, and inside a job wherever the
    program offers a progress callback; it ends the current stretch with
    a slice unless one ran less than ``MIN_SLICE_GAP_S`` ago.
    *take_slice* runs one slice where the work runs (a workload whose
    passes run in worker processes times its slices there).
    """

    def __init__(self, take_slice: Callable[[], float] = calibration_slice):
        self._take_slice = take_slice
        self.raw_s = 0.0        # work as measured, slices excluded
        self.corrected_s = 0.0  # the same at nominal host speed
        self._slice_s = self._slices(END_SLICES)
        self._stretch_start = time.perf_counter()

    def _slices(self, count: int) -> float:
        return statistics.fmean(self._take_slice() for _ in range(count))

    def tick(self, last: bool = False) -> None:
        stretch = time.perf_counter() - self._stretch_start
        if stretch < MIN_SLICE_GAP_S and not last:
            return
        slice_s = self._slices(END_SLICES if last else 1)
        self.raw_s += stretch
        self.corrected_s += at_nominal_speed(stretch, self._slice_s, slice_s)
        self._slice_s = slice_s
        self._stretch_start = time.perf_counter()
