"""Finite-dimensional real Hilbert space primitives.

Vectors are 1-D float64 arrays, operators are dense square float64
matrices, and the inner product is the Euclidean one (so the adjoint is
the transpose). Quadrature weights of discretized integral operators are
folded into the operator entries by the problem definitions, never into
the inner product.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.linalg


class FactorizationError(RuntimeError):
    """Raised when a matrix is not positive definite within tolerance.

    Attributes:
        smallest_pivot: smallest eigenvalue of the symmetrized matrix,
            evaluated after the failed factorization attempt.
    """

    def __init__(self, message: str, smallest_pivot: float):
        super().__init__(message)
        self.smallest_pivot = smallest_pivot


def all_finite(arr: np.ndarray) -> bool:
    """Whether every entry of the float array ``arr`` is finite.

    The check every validator here runs. It calls the array's own
    reduction: ``np.all`` costs about twice as much per call through
    its Python-level dispatch, which at n <= 16 is most of the check.
    """
    return bool(np.isfinite(arr).all())


def as_vector(v, dim: int | None = None) -> np.ndarray:
    """Validate and return ``v`` as a 1-D float64 array.

    Raises ValueError on wrong dimensionality, dimension mismatch with
    ``dim``, or non-finite entries.
    """
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    if arr.size < 1:
        raise ValueError("vector must have length >= 1")
    if dim is not None and arr.size != dim:
        raise ValueError(f"vector has length {arr.size}, expected {dim}")
    if not all_finite(arr):
        bad = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise ValueError(f"vector has non-finite entry at index {bad}")
    return arr


def as_operator(A, dim: int | None = None) -> np.ndarray:
    """Validate and return ``A`` as a dense square float64 matrix."""
    arr = np.asarray(A, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"operator is {arr.shape[0]}x{arr.shape[0]}, expected {dim}x{dim}")
    if not all_finite(arr):
        raise ValueError("operator has non-finite entries")
    return arr


@functools.lru_cache(maxsize=None)
def identity(n: int) -> np.ndarray:
    """The n x n identity, built once per size and shared read-only, so
    per-stage arithmetic allocates none."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def inner(u, v) -> float:
    """Euclidean inner product of two vectors of equal length."""
    u = as_vector(u)
    v = as_vector(v, dim=u.size)
    return float(np.dot(u, v))


def norm(v) -> float:
    """Norm induced by :func:`inner`."""
    return float(np.linalg.norm(as_vector(v)))


def apply_operator(A, v) -> np.ndarray:
    """Matrix-vector product A v."""
    A = as_operator(A)
    v = as_vector(v, dim=A.shape[0])
    return A @ v


def adjoint(A) -> np.ndarray:
    """Adjoint of a dense operator; the transpose in Euclidean coordinates."""
    return as_operator(A).T.copy()


def solve_regularized(A, eps: float, rhs) -> np.ndarray:
    """Solve (A + eps*I) y = rhs by Cholesky factorization.

    ``A`` must be such that A + eps*I is symmetric positive definite (the
    Gram form F'*F' always is). One step of iterative refinement keeps the
    residual near 1e-16 * ||rhs|| / relative conditioning.

    Args:
        A: square matrix, Gram form or otherwise SPD-compatible.
        eps: positive shift.
        rhs: right-hand side vector.

    Raises:
        FactorizationError: A + eps*I is not positive definite; the
            message reports the smallest pivot found.
    """
    A = as_operator(A)
    rhs = as_vector(rhs, dim=A.shape[0])
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    M = A + eps * identity(A.shape[0])
    M = 0.5 * (M + M.T)
    try:
        chol = scipy.linalg.cho_factor(M, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        pivot = float(np.min(np.linalg.eigvalsh(M)))
        raise FactorizationError(
            f"operator plus {eps}*I is not positive definite "
            f"(smallest pivot {pivot:.6e})",
            smallest_pivot=pivot,
        ) from exc
    y = scipy.linalg.cho_solve(chol, rhs, check_finite=False)
    # One refinement pass; cheap and tightens the residual for
    # ill-conditioned shifts.
    r = rhs - M @ y
    y = y + scipy.linalg.cho_solve(chol, r, check_finite=False)
    return y


def op_norm(A) -> float:
    """Spectral norm of ``A``: its largest singular value.

    One LAPACK SVD (singular values only), exact to round-off at any
    spectrum, including tightly clustered top singular values. Cheaper
    than ``np.linalg.norm(A, 2)`` at the sizes used here (n <= 16).
    """
    return float(np.linalg.svd(as_operator(A), compute_uv=False)[0])
