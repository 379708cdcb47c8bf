"""A fixed reference computation that measures the host's current speed.

On a shared machine the speed available to one process drifts by tens of
percent over minutes.  The benchmark runs this kernel between the timed
units and divides each unit's wall time by the mean of the kernel times
measured just before and just after it; the quotient cancels the drift
and changes only when the program's own cost changes.  The kernel does
what the package does in its inner loops, with no package code: small
dense eigenvalue and Lyapunov solves through numpy/scipy, plus pure
Python arithmetic.  It must never change, or results before and after the
change stop being comparable.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg

_SIZE = 20
_ROUNDS = 60

# Nominal seconds of one pass on the host the benchmark was defined on
# (2 vCPUs, x86-64, Python 3.11, numpy 2.4, OpenBLAS 0.3.31); set-up times
# are reported scaled to it.  Like the kernel, it must never change.
CALIBRATION_PASS_S = 0.040


def _matrices():
    rng = np.random.default_rng(20110910)
    A = rng.standard_normal((_SIZE, _SIZE))
    A /= 1.2 * np.max(np.abs(np.linalg.eigvals(A)))
    return A, np.eye(_SIZE)


_A, _Q = _matrices()


def _one_pass() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(_ROUNDS):
        acc += float(np.max(np.abs(np.linalg.eigvals(_A))))
        acc += float(np.trace(scipy.linalg.solve_discrete_lyapunov(_A, _Q)))
        n = 0
        for j in range(2000):
            n += j * j
        acc += n
    elapsed = time.perf_counter() - t0
    if not np.isfinite(acc):
        raise RuntimeError("calibration kernel produced a non-finite value")
    return elapsed


def calibrate(passes: int = 1) -> float:
    """Mean wall seconds per pass over ``passes`` passes of the kernel
    (about 40 ms each); the mean weighs fast and slow spells of the host as
    a timed unit of the same length would."""
    passes = max(1, passes)
    return sum(_one_pass() for _ in range(passes)) / passes
