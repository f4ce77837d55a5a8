"""Machine-speed calibration for the end-to-end time metrics.

The benchmark runs on shared machines whose speed drifts by tens of percent
within seconds, far more than any bound worth gating on. So the benchmark
times two short fixed kernels that use numpy only, never muown code, at
points spread through each workload unit and before each set-up repeat:

* ``python_kernel``: small-array numpy calls, then plain integer arithmetic,
  in Python loops: the regime of per-call and interpreter overhead;
* ``blas_kernel``: a frozen quintic Newton-Schulz iteration on a 128x512
  matrix, the BLAS-bound regime.

``speed_factor`` is the kernels' nominal times over their measured times,
weighted by the workload's BLAS share. A unit's times, with the samples' own
time taken out, are multiplied by the median factor of its samples, so the
reported times are seconds on a machine running the kernels at their nominal
speed. A change to muown moves them as it moves the raw wall time measured
at the same moment; the raw metrics are kept in the run record.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel times on the machine that recorded the first trajectory point
# (trajectory.json) in its faster moments, with one BLAS thread.
PYTHON_NOMINAL_S = 0.007
BLAS_NOMINAL_S = 0.007


def python_kernel() -> float:
    a = np.linspace(-1.0, 1.0, 48).reshape(8, 6)
    acc = 0.0
    for _ in range(500):
        b = a * 0.5 + 0.25
        c = b @ b.T
        acc += float(np.sqrt(np.sum(c * c)))
    n = 0
    for k in range(40000):
        n += (k * k) % 7
    return acc + n


def blas_kernel() -> float:
    x = np.sin(np.arange(128 * 512, dtype=np.float64)).reshape(128, 512)
    x /= np.sqrt(np.sum(x * x))
    for _ in range(6):
        gram = x @ x.T
        x = 1.875 * x + (-1.25 * gram + 0.375 * (gram @ gram)) @ x
    return float(x[0, 0])


def _timed(kernel, samples: int) -> float:
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def speed_factor(blas_share: float, samples: int = 1) -> float:
    """Nominal over current machine speed; below 1 when the machine runs slow."""
    factor = 1.0
    if blas_share < 1.0:
        factor *= (PYTHON_NOMINAL_S / _timed(python_kernel, samples)) ** (1.0 - blas_share)
    if blas_share > 0.0:
        factor *= (BLAS_NOMINAL_S / _timed(blas_kernel, samples)) ** blas_share
    return factor


class InUnit:
    """Speed samples taken inside one workload unit, at points it chooses.

    The samples' own time accumulates in ``excluded``, which the unit takes
    out of its wall time; each step interval is timed around them.
    """

    def __init__(self, blas_share: float):
        self.blas_share = blas_share
        self.factors: list[float] = []
        self.excluded = 0.0

    def sample(self) -> float:
        """Take one sample; return the clock reading right after it."""
        start = time.perf_counter()
        self.factors.append(speed_factor(self.blas_share))
        end = time.perf_counter()
        self.excluded += end - start
        return end

    def factor(self) -> float:
        return statistics.median(self.factors) if self.factors else 1.0
