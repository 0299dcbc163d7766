"""Machine-speed calibration for timing on a shared, noisy host.

On a small cloud guest the speed of the same code changes by up to 2x from
one few-second phase to the next, as neighbours come and go, so wall-clock
throughput of 20-second runs spreads by 20-35%. The benchmark therefore
times a fixed calibration loop before and after every timed interval and
scales the interval to a reference speed: ``seconds * CAL_REF_S / mean(cal
before, cal after)``. The loop mixes what arcwalk spends its time on: Python
dispatch, ``default_rng`` construction, small complex numpy kernels and
reductions. It is the benchmark's own code, so no change to arcwalk can move
it. Set-up probes spawn interpreters, which the loop tracks poorly; they are
bracketed by spawns of a bare interpreter instead, scaled by
``SPAWN_REF_S``. Runs print the wall-clock figures too.
"""

from __future__ import annotations

import time

# Median calibration time on the machine the first baseline was taken on
# (2-vCPU Xeon KVM guest, Python 3.11, numpy 2.4). Only a scale: any fixed
# value gives the same comparisons.
CAL_REF_S = 0.015
# Median seconds from spawning a bare interpreter (no arcwalk import) to its
# first statement on the same machine.
SPAWN_REF_S = 0.07


def calibrate() -> float:
    """Seconds one pass of the calibration loop takes now."""
    import numpy as np

    amps = np.zeros(256, dtype=np.complex128)
    amps[0] = 1.0
    t0 = time.perf_counter()
    for i in range(200):
        rng = np.random.default_rng(i)
        v = amps.reshape(-1, 2, 8)
        b0 = 0.6 * v[:, 0, :] + 0.8 * v[:, 1, :]
        v[:, 1, :] = 0.8 * v[:, 0, :] - 0.6 * v[:, 1, :]
        v[:, 0, :] = b0
        p0 = float(np.sum(v[:, 0, :].real ** 2 + v[:, 0, :].imag ** 2))
        int(np.searchsorted(np.cumsum(amps.real**2), rng.random() * p0, side="right"))
    return time.perf_counter() - t0


def to_reference(seconds: float, before: float, after: float, ref: float = CAL_REF_S) -> float:
    """An interval's seconds at the reference speed, from the calibration
    passes (of reference duration ``ref``) that bracket it."""
    return seconds * ref * 2.0 / (before + after)
