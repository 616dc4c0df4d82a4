"""Host-speed reference for the benchmark's CPU-time measurements.

On a shared host the speed of the benchmark's core moved by up to 25%
between ten-second windows, in CPU time as well as wall time, because
other tenants share the physical cores.  A fixed stdlib ``Fraction`` loop
timed next to each operation moves with it: dividing by it left about 1%
(one fixed TU game, 540 repetitions over 60 s).  Times are therefore
reported in reference seconds: CPU seconds scaled to a host on which
``reference()`` takes ``NOMINAL_S``.

The loop is benchmark code, so no change to the program under test moves
it, and it runs with the garbage collector paused, so heap growth in the
program does not move it either.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.002


def reference() -> float:
    """CPU seconds of one fixed Fraction loop (about 2 ms)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        s, x = Fraction(0), Fraction(1, 3)
        for i in range(1, 400):
            s = s * x + Fraction(i, 7)
            if s.denominator > 10**12:
                s = Fraction(s.numerator % 1000, 7)
        return time.process_time() - start
    finally:
        if enabled:
            gc.enable()


def factors(refs, radius: int = 4):
    """Per-sample scale NOMINAL_S / median of the references within
    ``radius`` samples, which smooths the ~2 ms readings without lagging
    behind changes of host speed that last seconds."""
    return [
        NOMINAL_S / statistics.median(refs[max(0, i - radius) : i + radius + 1])
        for i in range(len(refs))
    ]
