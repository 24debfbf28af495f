"""Summary statistics shared by the workloads, and the host-speed scale.

The hosts this benchmark runs on change speed by up to 2x over minutes
(other tenants of the machine): the same pass over the same instances
took 4.4 s in one minute and 8.1 s in another.  Wall times taken at
different moments are therefore scaled to a reference host speed.  The
speed is read from :func:`kernel_seconds`, a fixed piece of pure-Python
work that shares no code with the program, run between the timed calls;
a timing is scaled by :data:`REFERENCE_KERNEL_S` over the median of the
readings around it.  Across
the speed swing above, the scaled pass times stayed within 6% of their
median.  A change to the program's own speed moves the scaled figures
exactly as much as the raw ones; the raw figures are kept in the run
record.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import sys
import time
from typing import Sequence

#: Seconds :func:`kernel_seconds` takes on the reference host.
REFERENCE_KERNEL_S = 0.0025


def quantile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated quantile, ``q`` in [0, 1]; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(math.floor(position))
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def geo_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values; 0.0 when empty."""
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1024 * 1024) if sys.platform == "darwin" else peak / 1024


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask when known)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def kernel_seconds() -> float:
    """One timed run of the calibration kernel."""
    start = time.perf_counter()
    table = {}
    for i in range(4000):
        table[frozenset((i, i % 7, i % 13, i % 31))] = len(table)
    return time.perf_counter() - start


def kernel_readings(count: int = 3) -> list:
    return [kernel_seconds() for _ in range(count)]


def scaled(wall: float, kernels: Sequence[float]) -> float:
    """``wall`` seconds at the reference speed, given nearby readings."""
    return wall * REFERENCE_KERNEL_S / statistics.median(kernels)
