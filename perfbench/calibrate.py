"""Host-speed calibration of the benchmark's timings.

The hosts this benchmark runs on are shared: the speed of the same work
drifts by up to about 25% over minutes and by more from second to second,
and process CPU time drifts with it, so neither wall time nor CPU time alone
can tell a slower program from a slower host.  Every timed interval is
therefore bracketed by runs of :func:`calibrate`, a fixed interpreter,
NumPy and memory-bandwidth task that uses nothing of the program, and scaled by
:func:`scale` to the speed of a reference host: a reported time is the time
the interval would have taken on a host where :func:`calibrate` takes
:data:`REFERENCE_S`.  A slower program moves the interval and not the
calibration, so it still shows in full.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: median seconds of :func:`calibrate` on the reference host (2-vCPU VM,
#: Python 3.11, NumPy 2.4)
REFERENCE_S = 0.05

_ROWS = np.random.default_rng(0).random((256, 1024))


def _interpreter() -> None:
    total = 0.0
    slots = {}
    for i in range(150_000):
        total += (i * 0.5) % 7.0
        slots[i & 1023] = total


def _numpy() -> None:
    for _ in range(40):
        shifted = _ROWS * 1.0001 + _ROWS[:, ::-1]
        shifted.reshape(-1, 128).sum(axis=1)
        _ = shifted[::2, 1:] - shifted[1::2, :-1]


def _memory() -> None:
    # 32 MB arrays, allocated here and freed on return: the simulator's
    # large launches stream arrays of this size through caches and memory
    # that neighbours on the host share
    large = np.ones(1 << 22)
    for _ in range(3):
        (large * 1.0001 + large[::-1]).sum()


def calibrate() -> float:
    """Seconds of the calibration task: the geometric mean of its
    interpreter-bound, NumPy-bound and memory-bound parts."""
    parts = []
    for part in (_interpreter, _numpy, _memory):
        start = time.perf_counter()
        part()
        parts.append(time.perf_counter() - start)
    return math.prod(parts) ** (1.0 / len(parts))


def scale(before: float, after: float) -> float:
    """Factor that turns host seconds of an interval bracketed by the
    calibrations ``before`` and ``after`` into reference-host seconds."""
    return REFERENCE_S / ((before + after) / 2.0)
