"""Machine-speed calibration for the end-to-end timings.

On a shared virtual machine the speed of a vCPU changes by tens of
percent over tens of seconds, as neighbours come and go.  Each timed
sample is therefore bracketed by a fixed slice of interpreter work,
timed just before and just after it, and reported rescaled to the
speed at which that slice takes ``REFERENCE_S``::

    reported = wall * REFERENCE_S / calibration

so a value reads as wall seconds on a machine of the reference speed.
The slice allocates nothing the garbage collector tracks, so its time
does not depend on how much the analyzer holds in memory.  See
README.md for the measurements behind this.
"""

from __future__ import annotations

import time

# Median of calibration_s() on the box the bounds were set on: a
# 2-vCPU Intel Xeon KVM guest running Python 3.11.
REFERENCE_S = 0.040
_ITERATIONS = 200_000
_TABLE = {i: str(i) for i in range(256)}


class _Token:
    __slots__ = ("a", "b")

    def __init__(self) -> None:
        self.a, self.b = 0, ""


def calibration_s() -> float:
    """Wall seconds for the fixed slice of interpreter work."""
    tok, table = _Token(), _TABLE
    total = 0
    t0 = time.perf_counter()
    for i in range(_ITERATIONS):
        tok.a = i
        tok.b = table[i & 255]
        total += tok.a + len(tok.b)
    return time.perf_counter() - t0


def rescale(wall_s: float, calibration: float) -> float:
    """``wall_s`` at the reference speed, given the bracketing calibration."""
    return wall_s * REFERENCE_S / calibration
