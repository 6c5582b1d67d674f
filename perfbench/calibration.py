"""Calibration kernel: a fixed pure-Python Fraction and big-int workload.

The machine this benchmark runs on is shared, and its speed drifts by tens of
percent between and within processes.  The kernel below runs before every
timed job; a job's time is reported as ``raw * K_REF / K_adjacent``, where
``K_adjacent`` is the mean of the kernel timings just before and just after
the job.  The ratio of a job to the kernel stays steady while raw timings
drift, so calibrated figures are comparable across runs.  Raw seconds are
recorded next to every calibrated figure.

The kernel never imports labpoly, so no change to the program can move it.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Median kernel time, in seconds, on the machine the bounds were set on
# (Linux, 2 vCPUs, Python 3.11.7).  Calibrated figures are in "seconds at
# that speed"; changing K_REF rescales every timing of the benchmark.
K_REF = 0.0011


def kernel() -> int:
    """Fraction sums with growing denominators plus big-int products."""
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i * i + 1, 3 * i + 2)
        acc -= Fraction(i, 7 * i + 5)
    big = 1
    for i in range(1, 500):
        big = big * (2 * i + 1) + i
    return acc.denominator % 1009 + big % 1013


def time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
