"""Host speed, measured so wall times can be reported at a fixed speed.

A shared host changes speed by tens of percent within seconds, as other
tenants come and go on the same cores, and the simulation slows with
it.  :class:`SpeedMeter` times a short fixed loop of plain interpreter
work (calls, integer arithmetic, dict and list traffic; none of the
program's code, so a change to the program never moves it) between
slices of a timed region, and converts each slice's wall time into
*reference seconds*: the time the slice would have taken on a host
where the loop takes :data:`REFERENCE_LOOP_S`.

The loop allocates no container objects, so it never triggers or
delays the program's garbage collection.
"""

from __future__ import annotations

import time

#: Seconds one calibration loop takes on the reference host.
REFERENCE_LOOP_S = 0.005

_ITERATIONS = 20_000


def _step(table: dict, slots: list, i: int) -> int:
    key = (i * 7919) & 1023
    table[key] = table[key] + slots[key & 63]
    slots[key & 63] = i
    return key


def loop_seconds() -> float:
    """Wall seconds of one pass of the calibration loop."""
    table = dict.fromkeys(range(1024), 0)
    slots = [0] * 64
    step = _step
    started = time.perf_counter()
    for i in range(_ITERATIONS):
        step(table, slots, i)
    return time.perf_counter() - started


class SpeedMeter:
    """Converts consecutive wall-clock slices into reference seconds.

    The loop runs once when the meter is created and once in every
    :meth:`account` call, so create the meter right before the first
    timed slice and account each slice right after it: every slice then
    sits between two loop measurements and is scaled by their mean.
    """

    def __init__(self) -> None:
        self._last = loop_seconds()
        self.wall_s = 0.0
        self.reference_s = 0.0

    def account(self, wall_s: float) -> float:
        """Add one slice of ``wall_s``; return it in reference seconds."""
        before, self._last = self._last, loop_seconds()
        reference = wall_s * REFERENCE_LOOP_S / ((before + self._last) / 2)
        self.wall_s += wall_s
        self.reference_s += reference
        return reference
