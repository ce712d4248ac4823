"""Wall seconds to reference seconds, against a fixed pure-Python loop.

Imports nothing from mcap, so a fresh interpreter can calibrate before it
imports the package.
"""

from __future__ import annotations

import time


class Calibration:
    """Converts wall seconds to reference seconds.

    On a shared machine this interpreter's speed changes by up to 2x within
    seconds, as other tenants come and go.  A fixed pure-Python loop is timed
    before and after every measured interval, and the interval is scaled by
    ``REFERENCE_S`` over the loop's mean time, which removes most of that
    drift.  Wall seconds are printed beside the reference seconds.
    """

    LOOPS = 20_000
    # the loop's time in the reference unit; about this machine's usual speed
    REFERENCE_S = 0.005

    def __init__(self):
        self._before = self.loop_seconds()

    def loop_seconds(self) -> float:
        started = time.perf_counter()
        counts: dict[int, int] = {}
        x = 0
        for i in range(self.LOOPS):
            x = (x * 31 + i) % 1_000_003
            counts[x & 1023] = counts.get(x & 1023, 0) + 1
        return time.perf_counter() - started

    def factor(self) -> float:
        """Reference seconds per wall second over the interval since the last call."""
        after = self.loop_seconds()
        factor = 2 * self.REFERENCE_S / (self._before + after)
        self._before = after
        return factor
