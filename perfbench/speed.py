"""Machine-speed gauge for a shared, noisy host.

On a box whose speed drifts by 20-50% over seconds (other tenants, clock
changes; process CPU time drifts just as much), medians of raw iteration
times differ between runs by more than any useful regression bound.  A fixed
calibration kernel, timed right before and right after each iteration, tracks
that drift: each iteration time is rescaled by ``NOMINAL_KERNEL_S / kernel
time``, i.e. reported in *reference seconds*, the time the iteration would
take on a host that runs the kernel in NOMINAL_KERNEL_S.

The kernel mixes what the library's hot loops do: interpreted Python calls,
small NumPy ufuncs, a small banded LAPACK solve, and one larger array pass.
It does not touch the library, so a library change cannot move it.
"""
from __future__ import annotations

import math
import time

import numpy as np
from scipy.linalg import solve_banded

# median kernel time on the 2-core Xeon host the bounds were set on
NOMINAL_KERNEL_S = 0.005


def _kernel():
    x = np.linspace(0.0, 1.0, 17)
    ab = np.vstack([np.full(17, -0.1), np.full(17, 1.2), np.full(17, -0.1)])
    big = np.linspace(0.0, 1.0, 16000).reshape(1000, 16)
    acc = 0.0
    for i in range(150):
        y = np.exp(-x * (i * 1e-3)) * x
        acc += float(y @ x) + math.sin(i * 0.1)
        acc += float(solve_banded((1, 1), ab, y)[3])
        acc += sum(j * 0.5 for j in range(40))
    acc += float(np.sum(np.exp(big * 0.01) * big))
    return acc


def kernel_seconds():
    """Wall time of one kernel pass.  One pass, not an average of several:
    the host's speed changes within a second, so the pass nearest to the
    measurement tracks it best."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


class Gauge:
    """Rescales consecutive measurements by the kernel times right before and
    right after each (the pass after one measurement is the pass before the
    next)."""

    def __init__(self):
        self.before = kernel_seconds()
        self.kernels = [self.before]

    def scale(self, seconds):
        """Reference seconds of a measurement that ended just now."""
        after = kernel_seconds()
        self.kernels.append(after)
        factor = NOMINAL_KERNEL_S / (0.5 * (self.before + after))
        self.before = after
        return seconds * factor
