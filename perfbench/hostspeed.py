"""How fast the host runs a fixed pure-Python loop, to take host drift out of timings.

The benchmark's host is a shared 2-vCPU VM whose speed drifts by up to 40%
over stretches of seconds to minutes, with no steal time visible in the guest
and process CPU time equal to wall time.  Over 4-second windows, the time of a
workload pass and the time of this loop rose and fell together (correlation
0.88 on geometric_roundtrip), so dividing by the loop's time halves the
window-to-window spread.  A run times ``chunk_seconds`` between items, every
half second of item time, and scales every timing by ``NOMINAL_S`` over the
median chunk: a timing reads as it would on the host running the loop in
``NOMINAL_S``.  The loop does not
touch degreecalc, so a change to the program moves the scaled timings exactly
as it moves the raw ones.
"""

from __future__ import annotations

import statistics
import time

# Median chunk time on a 2-vCPU Intel Xeon VM under CPython 3.11, October 2026.
NOMINAL_S = 0.047


def _loop(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i
    return total


def chunk_seconds() -> float:
    """Wall time of one fixed chunk of the reference loop."""
    start = time.perf_counter()
    _loop(500_000)
    return time.perf_counter() - start


def scale(chunks: list[float]) -> float:
    """The factor that turns this host's timings into nominal-speed timings."""
    return NOMINAL_S / statistics.median(chunks)
