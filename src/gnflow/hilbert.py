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
:func:`finite` or :func:`count`; the scalars a caller's function returns
(the Gronwall rate gamma, the Riccati envelope mu, the two values of a
bounds hook) pass them too. Every array passes one rule, :func:`_array`,
through :func:`returned` (what a caller's function returns),
:func:`as_vector`, :func:`as_operator`, the right-hand side of
:func:`solve_regularized` or the stack of :func:`op_norms`: one
conversion to float64 that refuses complex values, strings, None entries
and ragged sequences, one shape test in which every size is at least 1
(but for an empty stack of norms), and one :func:`all_finite`. A value
that fails raises ValueError naming it, a string shown by its repr; an
array's message has one template, ``<subject> shape S, expected E``,
``<subject> a non-finite entry at index I`` or ``<subject> entries that
are not real numbers``, whose subject is ``F returned``, ``vector has``,
``operator has``, ``right-hand side has`` or ``operator stack has``. Only
a limit beyond a rule stays with its caller, such as a schedule exponent's
a <= 1 or a horizon of at least one step.
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


def shown(value) -> str:
    """``value`` as a rule's message shows it: a string by its repr, so that
    ``"3"`` does not read as the number 3, and anything else by ``str``,
    so that a numpy float reads ``0.1``."""
    return repr(value) if isinstance(value, str) else str(value)


def _scalar(name: str, value, words: str, above, low: float) -> float:
    """The one test of the scalar rules: ``value`` if it is a scalar number
    with ``above(value, low)`` and ``value < inf``, else ValueError saying
    that ``name`` must be ``words``."""
    try:
        if not getattr(value, "ndim", 0) and above(value, low) and value < math.inf:
            return value
    except TypeError:  # not a number
        pass
    raise ValueError(f"{name} must be {words}, got {shown(value)}")


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
        raise ValueError(f"{name} must be an integer, got {shown(value)}")
    if number < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return number


#: float64, the dtype of every array that passes the array rule as it is
_FLOAT = np.dtype(float)

#: The entries of an object array that are not real numbers, though
#: ``float()`` takes a numeric string, and numpy turns None into NaN and
#: drops an imaginary part with no more than a warning.
_NOT_REAL = (type(None), str, bytes, complex, np.complexfloating)


@functools.lru_cache(maxsize=256)
def _fits(shape: tuple, pattern: tuple) -> bool:
    """Whether ``shape`` fits ``pattern``, a tuple of sizes: an int stands for
    itself, and a letter for any size >= 1, the same size wherever the
    letter recurs, so ``("n", "n")`` is a square matrix. A tuple of
    patterns is fitted by fitting any one of them. The answer depends on
    the two tuples alone, so it is cached: a run meets few shapes."""
    if pattern and pattern[0].__class__ is tuple:
        return any(_fits(shape, one) for one in pattern)
    sizes = {}
    return len(shape) == len(pattern) and all(
        size == (sizes.setdefault(want, size) if size and want.__class__ is str else want)
        for want, size in zip(pattern, shape))


def _text(pattern: tuple) -> str:
    """``pattern`` as the shapes it stands for, letters bare: ``(n,) or (n, k)``."""
    alternatives = pattern if pattern and pattern[0].__class__ is tuple else [pattern]
    return " or ".join(str(one).replace("'", "") for one in alternatives)


def _array(value, pattern, name: str, verb: str = "has", at=None, where: str = "") -> np.ndarray:
    """The array rule, the one test of :func:`returned`, :func:`as_vector`,
    :func:`as_operator`, :func:`solve_regularized` and :func:`op_norms`:
    ``value`` as a float64 array whose shape fits ``pattern`` (:func:`_fits`)
    and whose every entry is finite, else ValueError whose subject is
    ``name`` and ``verb``:

    - ``<subject> entries that are not real numbers``: complex values,
      strings, None entries, a ragged sequence;
    - ``<subject> shape S, expected E``;
    - ``<subject> a non-finite entry at index I``.

    Booleans, integers, floats of any precision and objects ``float()``
    takes (such as fractions) convert as ``np.asarray(value, dtype=float)``
    converts them, and a float64 array is returned as it is. With ``at``,
    ``value`` is a nonempty sequence of values, each to fit the tuple
    ``pattern``, which pass as one stack; only after the stack fails is
    each value i checked alone, its message ending in ``where``, ``" at
    <at(i)>"``, so the first failing value raises, as :func:`returned`
    describes.

    The test that passes is one conversion, one shape test and one
    :func:`all_finite`; text is formatted only after a failure.
    """
    if at is not None and len(value) == 0:
        raise ValueError(f"{name} {verb} no values, expected at least one")
    whole = pattern if at is None else (len(value), *pattern)
    try:
        arr = np.asarray(value)
        if arr.dtype is not _FLOAT:
            real = arr.dtype.kind in "biuf" or arr.dtype.kind == "O" and not any(
                isinstance(entry, _NOT_REAL) for entry in arr.flat)
            arr = arr.astype(float, copy=False) if real else None
    except (TypeError, ValueError):  # a ragged sequence, or objects float() refuses
        arr = None
    fits = arr is not None and (arr.shape == whole or _fits(arr.shape, whole))
    if fits and all_finite(arr):
        return arr
    if at is not None:  # the first failing value raises
        for i, item in enumerate(value):
            _array(item, pattern, name, verb, where=f" at {at(i)}")
    if arr is None:
        raise ValueError(f"{name} {verb} entries that are not real numbers{where}")
    if not fits:
        raise ValueError(f"{name} {verb} shape {arr.shape}{where}, expected {_text(whole)}")
    index = np.unravel_index(np.flatnonzero(~np.isfinite(arr))[0], arr.shape)
    raise ValueError(f"{name} {verb} a non-finite entry at index "
                     f"{tuple(map(int, index))}{where}")


def returned(name: str, value, shape: tuple, at=None) -> np.ndarray:
    """Return what the caller's function ``name`` returned as a float64 array
    of exactly ``shape`` with every entry finite, by the array rule
    (:func:`_array`), the rule of every returned array; otherwise raise
    ValueError, as in ``F returned shape (3,), expected (2,)`` or
    ``jacobian returned a non-finite entry at index (3, 0, 1)``.

    With ``at``, ``value`` is a nonempty sequence of the function's values
    at several points, each of ``shape``; they are stacked into one array of
    shape ``(len(value), *shape)``, and an error names the first failing
    value i by ``at(i)``, as in ``A_path(t) returned shape (2, 3) at t=0.1,
    expected (2, 2)``; an empty sequence raises ``A_path(t) returned no
    values, expected at least one``. The failing value is looked for only
    after the stack fails.
    """
    return _array(value, shape, name, "returned", at)


def as_vector(v, dim: int | None = None) -> np.ndarray:
    """Return ``v`` as a 1-D float64 array of length ``dim``, or of any length
    >= 1 without ``dim``, with every entry finite, by the array rule
    (:func:`_array`); otherwise raise ValueError, as in ``vector has shape
    (3,), expected (2,)``."""
    return _array(v, ("n",) if dim is None else (dim,), "vector")


def as_operator(A, dim: int | None = None) -> np.ndarray:
    """Return ``A`` as a square float64 matrix of size ``dim``, or of any size
    >= 1 without ``dim``, with every entry finite, by the array rule
    (:func:`_array`); otherwise raise ValueError, as in ``operator has shape
    (2, 3), expected (n, n)``."""
    return _array(A, ("n", "n") if dim is None else (dim, dim), "operator")


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

    ``A`` is checked as a finite square matrix (:func:`as_operator`) and
    ``rhs``, by the array rule, as a finite vector of its size or a finite
    matrix with as many rows and at least one column; then
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
    n = len(A)
    rhs = _array(rhs, ((n,), (n, "k")), "right-hand side")
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
    return float(op_norms([A])[0])


def op_norms(stack) -> np.ndarray:
    """Spectral norms of a stack of square matrices, shape (k, n, n) -> (k,).

    The one norm routine: a batched LAPACK SVD (singular values only),
    exact to round-off at any spectrum, including tightly clustered top
    singular values, and cheaper than ``np.linalg.norm(A, 2)`` at n <= 16.
    A matrix gets the same norm alone or in a stack. The stack passes the
    array rule (:func:`_array`) as ``operator stack``: a stack of no
    matrices has no norms, and a matrix of size 0 is refused.

    A constant stack, every matrix bit for bit equal to the first (the
    zero forcing path G = 0 of the Gronwall checks that ``verify --suite
    lemmas`` and the benchmark's certify-build workload run), costs one
    SVD: the first matrix's norm is repeated, which by the property above
    is each matrix's norm exactly. Equality is tested on the bits, so a
    stack that differs only in the sign of a zero is not constant, and the
    test fails on the first against the last matrix for a mixed stack
    before it reads the rest.
    """
    arr = _array(stack, (("k", "n", "n"), (0, "n", "n")), "operator stack")
    if len(arr) > 1:
        bits = arr.view(np.uint64)
        if not np.count_nonzero(bits[-1] != bits[0]) and not np.count_nonzero(bits != bits[0]):
            return np.repeat(np.linalg.svd(arr[:1], compute_uv=False)[:, 0], len(arr))
    return np.linalg.svd(arr, compute_uv=False)[:, 0]
