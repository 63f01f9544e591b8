"""Fixed reference kernel that measures how fast the machine is right now.

Shared hosts change speed by up to a factor of two over tens of seconds,
so raw times from runs made minutes apart are not comparable. The runner
times this kernel between jobs and scales every measured time by
``NOMINAL_S / probe time``: the metrics read as they would on a machine on
which the kernel takes ``NOMINAL_S``.

The kernel does the kind of work the package does at these sizes: input
validation in Python, small dense products, a Cholesky solve and a
symmetric eigenvalue call on 8x8 and 16x16 matrices. It must not import
the package and must not change when the package does, or it would cancel
the very changes the benchmark measures.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg

#: Probe time that the scaled metrics refer to; near the kernel's median
#: on a 2-vCPU Intel Xeon 2.0 GHz virtual machine.
NOMINAL_S = 0.005

_REPEATS = 25


def _cases() -> list:
    """(A, SPD M, v) for n = 8 and 16, from a fixed seed."""
    rng = np.random.default_rng(20010103)
    out = []
    for n in (8, 16):
        A = rng.standard_normal((n, n))
        out.append((A, A.T @ A + np.eye(n), rng.standard_normal(n)))
    return out


_CASES = _cases()


def _vector(v) -> np.ndarray:
    x = np.asarray(v, dtype=float)
    if x.ndim != 1 or not np.all(np.isfinite(x)):
        raise ValueError("reference kernel input is not a finite vector")
    return x


def kernel() -> float:
    """The fixed work that :func:`probe` times."""
    acc = 0.0
    for _ in range(_REPEATS):
        for A, M, v in _CASES:
            x = _vector(v)
            y = A.T @ (A @ x) + 0.1 * x
            chol = scipy.linalg.cho_factor(M + 0.1 * np.eye(M.shape[0]), lower=True,
                                           check_finite=False)
            z = scipy.linalg.cho_solve(chol, y, check_finite=False)
            B = M @ M
            w = (B @ B) @ z
            acc += float(np.sqrt(w @ w)) + float(np.linalg.eigvalsh(M)[0])
    return acc


def probe() -> float:
    """Seconds one run of the kernel takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
