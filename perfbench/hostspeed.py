"""Host-speed calibration for timings taken on a shared host.

The speed a process gets from a shared host drifts by about a third over
seconds to minutes, as other tenants load it (see README, "Host noise").
Every host-time end-to-end figure is therefore scaled to a reference host
speed: a timing ``t`` measured while the calibration loop below took ``c``
seconds is reported as ``t * REF_CALIBRATION_S / c``.  The loop is pure
Python integer arithmetic, like the library's hot paths, and belongs to the
benchmark, so no change to the library moves it.
"""

from __future__ import annotations

import statistics
import time

# Calibration loop time of the reference host; the baseline host reads
# 2.2-3.0 ms depending on its load.
REF_CALIBRATION_S = 0.0025


def _loop() -> int:
    x = 1
    for i in range(20_000):
        x = (x * 1103515245 + i) % 1049089
    return x


def calibrate(reps: int = 3) -> float:
    """Median wall time of the calibration loop over ``reps`` runs, in s."""
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        _loop()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)
