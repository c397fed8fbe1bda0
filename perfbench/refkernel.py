"""A fixed reference kernel that gauges how fast the host runs right now.

The host shares its cores with other machines, and its speed swings by up
to a factor of two over seconds to minutes (see README.md, "Noise on this
host"); interpreter-bound code swings most.  So the benchmark runs this
kernel, which never touches enrfem, beside the interpreter-bound timings
(the sweep-files studies, interpreter start-up) and scales each timed
interval by ``NOMINAL_S / (kernel time measured beside it)``.  A timing
scaled so is the time the work would have taken with the host at its
nominal speed; a change to enrfem moves it by the same share as the wall
time.

The kernel mixes what the sweep spends its time on: an interpreter-bound
loop over elements with small float arithmetic, small numpy operations,
and a dense LU solve and matrix products in LAPACK and BLAS."""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.linalg import lapack

# Median of reference_seconds() on the reference host (2-core Intel Xeon at
# 2.1 GHz, Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31, 1 BLAS thread).
NOMINAL_S = 0.085
BLOCK = 6  # kernel samples per block

_GAUSS_X = (-0.8611363115940526, -0.3399810435848563, 0.3399810435848563, 0.8611363115940526)
_GAUSS_W = (0.3478548451374538, 0.6521451548625461, 0.6521451548625461, 0.3478548451374538)
_RNG = np.random.default_rng(20221010)
_SMALL = _RNG.standard_normal(6)
# The LAPACK part works in place on arrays made here: a large allocation in
# the kernel would cost page faults or not depending on what the process
# freed before (glibc's mmap threshold moves), and so on the workload.
_LU = np.asfortranarray(_RNG.standard_normal((700, 700)) + 700.0 * np.eye(700))
_LU_WORK = np.empty_like(_LU, order="F")
_RHS = np.ones(700)
_GEMM = _RNG.standard_normal((240, 240))
_GEMM_OUT = np.empty_like(_GEMM)


def _element_loop(n: int = 25000) -> float:
    """Gauss quadrature of a cubic over n elements, in plain Python."""
    h = 1.0 / n
    total = 0.0
    for k in range(n):
        a = k * h
        s = 0.0
        for x, w in zip(_GAUSS_X, _GAUSS_W):
            t = a + 0.5 * h * (x + 1.0)
            s += w * (t * t * t - 2.0 * t + 1.0)
        total += 0.5 * h * s
    return total


def _small_arrays(n: int = 9000) -> float:
    total = 0.0
    for k in range(n):
        v = _SMALL * (k + 1.0)
        total += float(np.dot(v, v[::-1]))
    return total


_getrf, _getrs = lapack.dgetrf, lapack.dgetrs


def _lapack() -> float:
    np.copyto(_LU_WORK, _LU)
    lu, piv, _ = _getrf(_LU_WORK, overwrite_a=True)
    x, _ = _getrs(lu, piv, _RHS)
    for _ in range(6):
        np.dot(_GEMM, _GEMM, out=_GEMM_OUT)
    return float(x.sum() + _GEMM_OUT[0, 0])


def reference_seconds() -> float:
    """Wall time of one pass of the kernel."""
    start = time.perf_counter()
    _element_loop()
    _small_arrays()
    _lapack()
    return time.perf_counter() - start


def block() -> list[float]:
    """BLOCK kernel times, one after another."""
    return [reference_seconds() for _ in range(BLOCK)]


def scale(seconds: float, kernel_samples: list[float]) -> float:
    """``seconds`` at the host's nominal speed, given kernel times measured beside it."""
    return seconds * NOMINAL_S / statistics.median(kernel_samples)
