"""Finite-dimensional real Hilbert space primitives.

Vectors are 1-D float64 arrays, operators are dense square float64
matrices, and the inner product is the Euclidean one (so the adjoint is
the transpose). Quadrature weights of discretized integral operators are
folded into the operator entries by the problem definitions, never into
the inner product.

The product rule of the stage path: each product that an integration
stage forms (in ``flow.direct_rhs`` and ``flow.coupled_rhs``, the
refinement of :func:`solve_shifted`, the Gronwall check's right-hand side
and the gallery's affine and quadratic F) is ``np.dot``, not ``@``. At
n <= 16 the call costs more than the arithmetic, and ``np.dot`` reaches
the same BLAS routine with less per-call work, giving the same bits with
two exceptions:

- a strided matrix times a vector is summed by ``@`` in numpy's own
  loop, but copied by ``np.dot`` for BLAS, which rounds differently. So
  the regularized gradient ``J.T @ F(x)``, whose J is the caller's F' as
  it comes, keeps ``@``; every other matrix-vector product of a stage
  has a matrix that the stage built or the gallery holds in C order;
- a 1 x 1 product is one multiplication under ``np.dot`` but is added to
  +0.0 under ``@``, so the sign of an exact zero can differ at n = 1.

A negation stays on its operand, as in ``np.dot(-B, g)``: moved after
the product, it would turn the +0.0 of an exactly zero entry into -0.0.

The Gram rule beside it: :func:`solve_shifted` takes an exactly
symmetric ``A`` and symmetrizes nothing, so each caller hands it one.
:func:`solve_regularized` symmetrizes the caller's matrix once, before the
shift, and the direct stage's Gram ``np.dot(J.T, J)`` is symmetric by
construction for most layouts of J; ``flow._symmetric_gram`` states for
which, and symmetrizes the rest.

The overflow contract: every symmetric part that the package solves with or
takes eigenvalues of is :func:`symmetric_part`'s, finite for finite input,
and every Euclidean norm of all the entries of one array is :func:`norm`'s,
finite for finite input whose norm is representable. ``np.linalg.norm``
stays only where it takes an ``axis`` or an ``ord``: the row norms of the
Gaussian direction stacks that the bounds sample, and the autoconvolution's
1-norm.

The value rules: whether a value is acceptable is decided here, once per
kind. Every scalar passes :func:`positive`, :func:`nonnegative`,
:func:`finite` or :func:`count`, and every array a caller's function
returns passes :func:`returned`; the scalars a caller's function returns
(the Gronwall rate gamma, the Riccati envelope mu, the two values of a
bounds hook) pass the scalar rules too. A value that fails raises
ValueError naming it. Only a limit beyond a rule stays with its caller,
such as a schedule exponent's a <= 1 or a horizon of at least one step.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import operator
import os

import numpy as np


class FactorizationError(RuntimeError):
    """Raised when a matrix is not positive definite within tolerance, or
    when a checked solve with it is not finite.

    Attributes:
        smallest_pivot: smallest eigenvalue of the shifted matrix A + eps*I
            (of its lower triangle, the one ``potrf`` reads), evaluated
            after the failed factorization attempt; NaN when the matrix
            or the solution has a non-finite entry.
    """

    def __init__(self, message: str, smallest_pivot: float):
        super().__init__(message)
        self.smallest_pivot = smallest_pivot


def all_finite(arr: np.ndarray) -> bool:
    """Whether every entry of the float array ``arr`` is finite.

    The check every validator in the package runs, exact for every array.
    It first takes the self-dot, the sum of the squared entries: its terms
    are nonnegative, so no infinity can cancel another, and a finite sum
    proves every entry finite. A sum that is not finite comes from a NaN
    or infinite entry, or from finite entries whose squares overflow
    (|a| above about 1e154), so only then are the finite entries counted.
    One dot, without the boolean array and reduction of the count, is the
    cheaper test at n <= 16.

    An array that is not aligned goes straight to the count: ``np.vdot``
    hands its data to BLAS as it is, and OpenBLAS's Prescott kernel
    crashes the interpreter on an unaligned float64 vector.
    """
    if arr.flags.aligned and math.isfinite(np.vdot(arr, arr)):
        return True
    return bool(np.count_nonzero(np.isfinite(arr)) == arr.size)


def norm(v: np.ndarray) -> float:
    """The Euclidean norm of all entries of the float64 array ``v``, of any
    shape, as a Python float: the package's one vector norm.

    Where the self-dot, the sum of the squared entries in memory order, is
    finite, the norm is its square root, the bits of ``np.linalg.norm(v)``.
    Where the self-dot overflows (an entry above about 1e154) but every
    entry is finite, it is ``math.hypot`` of the entries, finite whenever
    the norm is representable. A NaN entry gives NaN, and an infinite entry
    without one gives inf, as ``np.linalg.norm`` does.

    The self-dot is ``np.vdot``'s, the BLAS ddot that ``v.dot(v)`` also
    calls, but without the overflow warning numpy raises after ``dot``. As
    in :func:`all_finite`, an unaligned vector does not reach ``np.vdot``;
    it is copied first.
    """
    v = v.ravel(order="K")
    if not v.flags.aligned:
        v = v.copy()
    square = np.vdot(v, v)
    if square == math.inf:  # squares that overflow, or an infinite entry
        return math.hypot(*v.tolist())
    return math.sqrt(square)


def _scalar(name: str, value, words: str, above, low: float) -> float:
    """The one test of the scalar rules: ``value`` if it is a scalar number
    with ``above(value, low)`` and ``value < inf``, else ValueError saying
    that ``name`` must be ``words``."""
    try:
        if not getattr(value, "ndim", 0) and above(value, low) and value < math.inf:
            return value
    except TypeError:  # not a number
        pass
    raise ValueError(f"{name} must be {words}, got {value}")


def positive(name: str, value: float) -> float:
    """Return ``value`` if it is positive and finite, the rule of every scalar
    parameter; otherwise (NaN, inf, arrays of one or more dimensions and
    values that are not numbers, such as None or a string, included) raise
    ValueError naming it. Python and numpy floats and 0-d arrays are
    scalars."""
    return _scalar(name, value, "positive and finite", operator.gt, 0)


def nonnegative(name: str, value: float) -> float:
    """Return ``value`` if it is nonnegative and finite, the rule of every time,
    noise level and ball bound; otherwise raise ValueError naming it, as
    :func:`positive` does."""
    return _scalar(name, value, "nonnegative and finite", operator.ge, 0)


def finite(name: str, value: float) -> float:
    """Return ``value`` if it is finite, the rule of a scalar of either sign
    (the run's ``x0_scale``) or bounded below elsewhere (the integrator's
    horizon, by its step grid); otherwise raise ValueError naming it, as
    :func:`positive` does."""
    return _scalar(name, value, "finite", operator.gt, -math.inf)


def integer(value) -> int | None:
    """``value`` as an int if it is an integer, else None: the integer test of
    :func:`count` and of the run's seed. Integers are those
    ``operator.index`` accepts, so numpy integers pass and bools do not."""
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def count(name: str, value) -> int:
    """Return ``value`` as an int if it is an integer >= 1 (:func:`integer`),
    the rule of every count parameter; otherwise (floats and bools included)
    raise ValueError naming it."""
    number = integer(value)
    if number is None:
        raise ValueError(f"{name} must be an integer, got {value}")
    if number < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return number


def returned(name: str, value, shape: tuple, at=None) -> np.ndarray:
    """Return what the caller's function ``name`` returned as a float64 array
    of exactly ``shape`` with every entry finite, the rule of every returned
    array; otherwise raise ValueError, as in ``F returned shape (3,),
    expected (2,)`` or ``jacobian returned a non-finite entry at index
    (3, 0, 1)``.

    With ``at``, ``value`` is a nonempty sequence of the function's values
    at several points, each of ``shape``; they are stacked into one array of
    shape ``(len(value), *shape)``, and an error names the first failing
    value i by ``at(i)``, as in ``A_path(t) returned shape (2, 3) at t=0.1,
    expected (2, 2)``; an empty sequence raises ``A_path(t) returned no
    values, expected at least one``.

    The test that passes is one conversion, one shape comparison and one
    :func:`all_finite`; the failing value is looked for only after it fails.
    """
    if at is not None and len(value) == 0:
        raise ValueError(f"{name} returned no values, expected at least one")
    try:
        arr = np.asarray(value, dtype=float)
    except ValueError:
        arr = None  # values of unequal shapes, or not numbers: located below
    stacked = shape if at is None else (len(value), *shape)
    if arr is not None and arr.shape == stacked and all_finite(arr):
        return arr
    for i, item in enumerate([value] if at is None else value):
        item = np.asarray(item, dtype=float)  # one that is not numbers raises here
        where = "" if at is None else f" at {at(i)}"
        if item.shape != shape:
            raise ValueError(f"{name} returned shape {item.shape}{where}, expected {shape}")
        if not all_finite(item):
            index = np.unravel_index(np.flatnonzero(~np.isfinite(item))[0], shape)
            raise ValueError(f"{name} returned a non-finite entry at index "
                             f"{tuple(map(int, index))}{where}")


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


def _load_flapack(scipy_root: str):
    """scipy's f2py LAPACK extension ``scipy.linalg._flapack``, loaded from
    the package directory ``scipy_root`` without importing ``scipy`` or
    ``scipy.linalg``; ImportError, naming the directory searched, if it is
    not there."""
    where = os.path.join(scipy_root, "linalg")
    spec = importlib.machinery.PathFinder.find_spec("scipy.linalg._flapack", [where])
    if spec is None:
        raise ImportError(f"scipy's LAPACK extension _flapack not found in {where}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: LAPACK Cholesky factorization and triangular solves, the very objects
#: ``scipy.linalg.get_lapack_funcs(("potrf", "potrs"))`` returns for float64
#: (its ``dpotrf``/``dpotrs``). They are taken from the extension itself
#: because importing ``scipy.linalg`` for them would cost most of the
#: package's import time, and called directly because scipy's
#: cho_factor/cho_solve wrap them in per-call dispatch that, at n <= 16,
#: costs about as much as the solve. ``find_spec`` locates scipy without
#: importing it.
_SCIPY = importlib.util.find_spec("scipy")
if _SCIPY is None:
    raise ImportError("gnflow needs scipy, which is not installed")
_FLAPACK = _load_flapack(_SCIPY.submodule_search_locations[0])
_POTRF, _POTRS = _FLAPACK.dpotrf, _FLAPACK.dpotrs


def symmetric_part(A: np.ndarray) -> np.ndarray:
    """0.5 (A + A*) of a square float64 matrix, or of each matrix of a
    (k, n, n) stack, exactly symmetric, as a new array; a matrix gets the
    same bits alone or in a stack.

    Each entry is ``0.5 * (a + b)`` of the pair a = A[..., i, j], b =
    A[..., j, i], the bits of the plain formula, wherever a + b is finite.
    Where it overflows (two entries above DBL_MAX/2 in magnitude, of one
    sign), the entry is ``0.5*a + 0.5*b``, finite where the plain formula
    gives inf. A non-finite A keeps the plain formula's non-finite entries.
    """
    AT = np.swapaxes(A, -1, -2)
    with np.errstate(over="ignore"):
        S = A + AT
    S *= 0.5
    if not all_finite(S):
        spilled = ~np.isfinite(S)
        S[spilled] = (0.5 * A + 0.5 * AT)[spilled]
    return S


def solve_regularized(A, eps: float, rhs) -> np.ndarray:
    """Solve (A + eps*I) y = rhs by Cholesky factorization: the checked
    entry point of :func:`solve_shifted`.

    ``A`` is checked as a finite square matrix and ``rhs`` as a finite
    vector of its size, or a finite matrix with as many rows; then
    :func:`solve_shifted` solves 0.5 (A + A*) + eps*I, the
    :func:`symmetric_part` of A shifted. Symmetrizing before the shift
    gives the bits of symmetrizing A + eps*I after it, signed zeros and
    subnormals included, but for one sign: an off-diagonal pair that sums
    to -5e-324 halves to a zero that is now +0.0, where the other order
    gave -0.0.

    Raises:
        ValueError: a non-finite or wrongly shaped ``A`` or ``rhs``, or an
            ``eps`` that is not positive and finite.
        FactorizationError: as :func:`solve_shifted`, or a solution that
            overflowed or met a non-finite pivot that ``potrf`` passed.
    """
    A = as_operator(A)
    n = A.shape[0]
    rhs = np.asarray(rhs, dtype=float)
    if rhs.ndim == 2:
        if rhs.shape[0] != n or not all_finite(rhs):
            raise ValueError(f"right-hand side must be a finite matrix with {n} rows, "
                             f"got shape {rhs.shape}")
    else:
        rhs = as_vector(rhs, dim=n)
    with np.errstate(all="ignore"):
        y = solve_shifted(symmetric_part(A), eps, rhs)
    if not all_finite(y):
        raise FactorizationError(f"solution of operator plus {eps}*I has a non-finite entry",
                                 smallest_pivot=math.nan)
    return y


def solve_shifted(A: np.ndarray, eps: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (A + eps*I) y = rhs by Cholesky factorization, on bare arrays:
    the kernel of :func:`solve_regularized` and of the direct flow's stage.

    ``A`` must be exactly symmetric, bit for bit (the Gram rule of this
    module), and A + eps*I positive definite (the Gram form F'*F' always
    is): the factorization reads the lower triangle only, but the
    refinement multiplies by the whole matrix, so an ``A`` that is not
    symmetric gives other bits. One step of iterative refinement keeps the
    residual near 1e-16 * ||rhs|| / relative conditioning.

    It checks ``eps``, a scalar, and no array: ``A`` and ``rhs`` must have
    the types and shapes that :func:`solve_regularized` checks, and their
    entries are not checked. A non-finite entry either makes ``potrf``
    fail, which raises FactorizationError naming the non-finite operator,
    or makes the result non-finite (the refinement multiplies by A +
    eps*I), which the caller must test: :func:`integrator.advance` does so
    at the end of every step.

    The factorization is LAPACK ``potrf`` (lower triangle, as
    ``scipy.linalg.cho_factor`` computes it) and each solve ``potrs``. A
    matrix ``rhs`` is factorized once and solved column by column, so
    every column of the result equals the solution for that column alone,
    bit for bit.

    Raises:
        ValueError: ``eps`` is not positive and finite.
        FactorizationError: A + eps*I is not positive definite in floating
            point; the message reports its smallest eigenvalue and says
            whether eps was lost in rounding against the largest, or that
            it has a non-finite entry.
    """
    n = A.shape[0]
    M = A + positive("eps", eps) * identity(n)
    chol, info = _POTRF(M, lower=1, clean=0)
    if info > 0:
        if not all_finite(M):  # only a caller that skipped the checks gets here
            raise FactorizationError(f"operator plus {eps}*I has a non-finite entry",
                                     smallest_pivot=math.nan)
        eigs = np.linalg.eigvalsh(M)
        smallest = float(eigs[0])
        # n * u * max|eigenvalue|, u the unit round-off: a shift at or below it
        # is lost in rounding, whatever the exact operator's definiteness
        rounding = n * (np.finfo(float).eps / 2.0) * float(np.max(np.abs(eigs)))
        if eps <= rounding:
            cause = (f"shift {eps}*I is lost in rounding "
                     f"(at or below the rounding level {rounding:.6e} of the operator)")
        else:
            cause = f"operator plus {eps}*I is not positive definite"
        raise FactorizationError(f"{cause}; smallest eigenvalue {smallest:.6e}",
                                 smallest_pivot=smallest)

    def refined(b: np.ndarray) -> np.ndarray:
        y = _POTRS(chol, b, lower=1)[0]
        # One refinement pass; cheap and tightens the residual for
        # ill-conditioned shifts.
        return y + _POTRS(chol, b - np.dot(M, y), lower=1)[0]

    if rhs.ndim == 1:
        return refined(rhs)
    out = np.empty_like(rhs)
    for j in range(rhs.shape[1]):
        out[:, j] = refined(rhs[:, j])
    return out


def op_norm(A) -> float:
    """Spectral norm of the square matrix ``A``, by :func:`op_norms` on a
    one-matrix stack. No package code calls it; it stays for the
    benchmark's tracer, which names it, and for the tests' oracles."""
    return float(op_norms(np.asarray(A, dtype=float)[None])[0])


def op_norms(stack) -> np.ndarray:
    """Spectral norms of a stack of square matrices, shape (k, n, n) -> (k,).

    The one norm routine: a batched LAPACK SVD (singular values only),
    exact to round-off at any spectrum, including tightly clustered top
    singular values, and cheaper than ``np.linalg.norm(A, 2)`` at n <= 16.
    A matrix gets the same norm alone or in a stack. Raises ValueError on
    non-finite entries anywhere in the stack.

    A constant stack, every matrix bit for bit equal to the first (the
    zero forcing path G = 0 of the Gronwall checks that ``verify --suite
    lemmas`` and the benchmark's certify-build workload run), costs one
    SVD: the first matrix's norm is repeated, which by the property above
    is each matrix's norm exactly. Equality is tested on the bits, so a
    stack that differs only in the sign of a zero is not constant, and the
    test fails on the first against the last matrix for a mixed stack
    before it reads the rest.
    """
    arr = np.asarray(stack, dtype=float)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {arr.shape}")
    if not all_finite(arr):
        raise ValueError("operator has non-finite entries")
    if len(arr) > 1:
        bits = arr.view(np.uint64)
        if not np.count_nonzero(bits[-1] != bits[0]) and not np.count_nonzero(bits != bits[0]):
            return np.repeat(np.linalg.svd(arr[:1], compute_uv=False)[:, 0], len(arr))
    return np.linalg.svd(arr, compute_uv=False)[:, 0]
