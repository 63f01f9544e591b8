"""Nonlinear operators F: R^n -> R^n with derivative oracles and ball bounds.

A problem bundles the forward map, an optional analytic Jacobian (with a
finite-difference fallback), and an optional known solution used by the
error monitors and the convergence certificate.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import hilbert

#: Default step for the finite-difference Jacobian fallback.
FD_DEFAULT_STEP = 1e-6

#: Conservative inflation applied to sampled derivative bounds.
BOUND_INFLATION = 1.1

# Sampled second-derivative bounds of affine problems come out exactly
# zero, which would send the canonical ball radius to infinity; keep a
# tiny positive floor (far below the 1e-6 scale tests treat as "zero").
N2_FLOOR = 1e-8


@dataclass(frozen=True, eq=False)
class NonlinearProblem:
    """F: R^n -> R^n with optional Jacobian and known solution.

    Problems are immutable: assigning to a field raises
    ``dataclasses.FrozenInstanceError``. Each owns one memo of the
    constants that depend only on it (:meth:`constant`); it lives exactly
    as long as the problem.

    Args:
        dim: ambient dimension n, an integer >= 1 (the count rule of
            :func:`hilbert.count`), stored as a Python int.
        f: forward map, vector -> vector. Marked with :func:`rowwise`, it
            also maps a stack of vectors row by row.
        jac: analytic Jacobian, vector -> matrix; finite differences are
            used when absent. Marked with :func:`rowwise`, it also maps an
            ``(..., n)`` stack of points to the ``(..., n, n)`` stack of
            their Jacobians.
        known_solution: a root of F, when one is known. Enables the error
            monitors and certificate features.
        label: identifier used by the gallery registry and the CLI.
        validate_solution: check at construction that known_solution is
            a root (:func:`check_root`). Noisy data variants keep the
            clean solution for error reporting and disable the check.
    """

    dim: int
    f: Callable[[np.ndarray], np.ndarray]
    jac: Optional[Callable[[np.ndarray], np.ndarray]] = None
    known_solution: Optional[np.ndarray] = None
    label: str = ""
    validate_solution: bool = field(default=True, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "dim", hilbert.count("dim", self.dim))
        object.__setattr__(self, "_constants", {})
        if self.known_solution is not None:
            xhat = hilbert.as_vector(self.known_solution, dim=self.dim)
            object.__setattr__(self, "known_solution", xhat)
            if self.validate_solution:
                check_root(self, xhat, "known_solution")

    def constant(self, key, build: Callable[[], object]):
        """``build()``, called at the first request for ``key`` only: ``key``
        must encode every input of ``build`` but the problem itself.

        Two constants live here: F'(xhat)* F'(xhat) per point xhat
        (:func:`gnflow.flow.solution_gram`), and ||F'|| of a
        :func:`constant_jacobian` (:func:`estimate_bounds`), which depends
        on no point at all.
        """
        if key not in self._constants:
            self._constants[key] = build()
        return self._constants[key]


@dataclass(frozen=True)
class BallBounds:
    """Derivative bounds on a closed ball around ``center``.

    N1 bounds ||F'(x)|| and N2 bounds the second-derivative norm over the
    ball, both inflated by :data:`BOUND_INFLATION`. Sampling certifies the
    bounds only statistically; ``samples`` records how hard we looked.
    For a :func:`constant_jacobian` the bounds are exact and no point is
    drawn; ``samples`` is then the count that was asked for, so the
    record equals the sampled one field for field.
    """

    center: np.ndarray
    radius: float
    N1: float
    N2: float
    samples: int


def check_root(p: NonlinearProblem, xhat: np.ndarray, name: str = "xhat") -> None:
    """Raise ValueError unless the checked vector ``xhat`` is a root of F:
    F(xhat) must pass :func:`hilbert.returned` and have a norm of at most
    1e-8 (1 + ||xhat||). The error names ``name``, ||F(xhat)|| and the bound."""
    res = np.linalg.norm(hilbert.returned("F", p.f(xhat), (p.dim,)))
    bound = 1e-8 * (1.0 + np.linalg.norm(xhat))
    if res > bound:
        raise ValueError(f"{name} is not a root: ||F(xhat)|| = {res:.3e} > {bound:.3e}")


def eval_F(p: NonlinearProblem, x) -> np.ndarray:
    """Evaluate F(x), rejecting non-finite inputs and outputs
    (:func:`hilbert.returned`)."""
    x = hilbert.as_vector(x, dim=p.dim)
    return hilbert.returned("F", p.f(x), (p.dim,))


def rowwise(fn):
    """Mark F, or its Jacobian, as mapping the rows of a stack as it maps one vector.

    A marked F accepts an ``(..., n)`` array and returns an ``(..., n)``
    array whose every row equals, bit for bit, F of that row alone.
    :func:`fd_jacobian` then evaluates all 2n points in one call. A
    marked Jacobian maps ``(..., n) -> (..., n, n)``, a C-contiguous
    stack whose every block equals, bit for bit, the Jacobian of that row
    alone; :func:`estimate_bounds` then makes two Jacobian calls in all.
    The marker sits on the callable, not on the problem, so a problem
    rebuilt from the same ``f`` or ``jac`` keeps it. Returns ``fn``.
    """
    fn.rowwise = True
    return fn


def constant_jacobian(jac):
    """Mark a Jacobian as constant: it returns the same matrix, bit for bit,
    at every point, as the Jacobian of an affine F does.

    :func:`estimate_bounds` then draws no sample: N1 is the inflated
    ||F'||, taken once per problem, and N2 is :data:`N2_FLOOR`, the very
    values sampling gives. The marker sits on the callable, as
    :func:`rowwise` does, so a problem rebuilt from the same ``jac`` keeps
    it. Nothing checks the claim. Returns ``jac``.
    """
    jac.constant_jacobian = True
    return jac


def _on_rows(name: str, fn, points: np.ndarray, shape: tuple, at) -> np.ndarray:
    """The caller's function ``fn`` at each row of ``points``, stacked and
    checked by :func:`hilbert.returned`: one call of a :func:`rowwise` ``fn``
    on the whole stack, else one per row, in order, naming a failing row i
    by ``at(i)``."""
    if getattr(fn, "rowwise", False):
        return hilbert.returned(name, fn(points), (len(points), *shape))
    return hilbert.returned(name, [fn(point) for point in points], shape, at=at)


@functools.lru_cache(maxsize=8)
def _fd_stencil(n: int, h: float) -> np.ndarray:
    """The 2n x n steps [h*I; -(h*I)] of :func:`fd_jacobian`, built once per
    (n, h) and shared read-only, as :func:`hilbert.identity` is.

    ``x + (-d)`` equals ``x - d`` in IEEE arithmetic, signed zeros included,
    so the points keep the bits of ``x + h*I`` and ``x - h*I``. The cache
    holds few entries, since ``h`` is a caller's float.
    """
    steps = h * hilbert.identity(n)
    stencil = np.concatenate((steps, -steps))
    stencil.setflags(write=False)
    return stencil


def fd_jacobian(p: NonlinearProblem, x, h: float = FD_DEFAULT_STEP) -> np.ndarray:
    """Central-difference Jacobian, a C-contiguous n x n matrix.

    Column j is (F(x + h e_j) - F(x - h e_j)) / (2h); exact for affine F.
    The 2n points are the rows of x + :func:`_fd_stencil`, equal bit for
    bit to x + h e_j and x - h e_j, and F is evaluated on them by
    :func:`_on_rows`. The finished matrix goes through
    :func:`hilbert.returned` too, since the difference of two finite
    values can overflow.

    The differences are formed as rows and then transposed, so the
    transposed result is copied to C order: products such as ``J.T @ J``
    round differently on an F-ordered ``J``, and every trajectory that
    uses it would change its bits.
    """
    hilbert.positive("h", h)
    x = hilbert.as_vector(x, dim=p.dim)
    n = p.dim
    points = x + _fd_stencil(n, float(h))  # a 0-d array h is a scalar, but unhashable
    # point i is x + h e_i for i < n and x - h e_(i-n) after
    Y = _on_rows("F", p.f, points, (n,), at=lambda i: f"x {'+-'[i // n]} h*e_{i % n}")
    J = np.ascontiguousarray(((Y[:n] - Y[n:]) / (2.0 * h)).T)
    return hilbert.returned("fd_jacobian", J, (n, n))


def jacobian(p: NonlinearProblem, x) -> np.ndarray:
    """F'(x), analytic when provided (:func:`hilbert.returned`), else central
    differences (:func:`fd_jacobian` checks ``x`` itself)."""
    if p.jac is None:
        return fd_jacobian(p, x)
    x = hilbert.as_vector(x, dim=p.dim)
    return hilbert.returned("jacobian", p.jac(x), (p.dim, p.dim))


def _ball_points(center: np.ndarray, radius: float, samples: int, rng) -> np.ndarray:
    """Uniform samples in the closed ball, rows are points."""
    n = center.size
    dirs = rng.standard_normal((samples, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = radius * rng.uniform(size=samples) ** (1.0 / n)
    return center[None, :] + radii[:, None] * dirs


def estimate_bounds(
    p: NonlinearProblem,
    center,
    radius: float,
    samples: int = 64,
    seed: int = 0,
) -> BallBounds:
    """Derivative norm bounds over the ball U(center, radius), sampled
    unless the Jacobian is a :func:`constant_jacobian`.

    N1 is the largest sampled ||F'(x)||; N2 differences the Jacobian
    along sampled unit directions with step 1e-4 * radius. Both are
    inflated by :data:`BOUND_INFLATION` (10%) against sampling optimism.
    Deterministic per seed.

    The Jacobian is evaluated by :func:`_on_rows` at every sample point,
    then at every shifted point (by finite differences when the problem has
    none), and an error names the failing sample. The norms are then taken
    by :func:`hilbert.op_norms` in two batched calls, one over the stacked
    Jacobians and one over the stacked differences (a non-finite
    difference raises ValueError there).
    Each batched norm equals :func:`hilbert.op_norm` of the same matrix
    exactly. Raises ValueError unless ``radius`` is positive and finite
    and ``samples`` is an integer >= 1.

    A constant Jacobian takes the exact path once the arguments are
    checked: no point is drawn, and ``seed`` and ``samples`` select
    nothing (``samples`` is recorded as given). Every sampled Jacobian
    would be F' and every difference zero, so N1 is the inflated ||F'||
    and N2 the floor, the bits of the sampled path. ||F'|| is taken once
    per problem, at ``center``, by :func:`hilbert.op_norms` on a
    one-matrix stack (the SVD that a constant stack costs), and kept in
    :meth:`NonlinearProblem.constant`: later calls evaluate no Jacobian.
    """
    center = hilbert.as_vector(center, dim=p.dim)
    hilbert.positive("radius", radius)
    samples = hilbert.count("samples", samples)
    if getattr(p.jac, "constant_jacobian", False):
        n1 = p.constant("jacobian_norm",
                        lambda: float(hilbert.op_norms(jacobian(p, center)[None])[0]))
        n2 = 0.0
    else:
        rng = np.random.default_rng(seed)
        points = _ball_points(center, radius, samples, rng)
        dirs = rng.standard_normal((samples, p.dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        delta = 1e-4 * radius
        shifted = points + delta * dirs

        jac = p.jac if p.jac is not None else lambda x: fd_jacobian(p, x)
        shape = (p.dim, p.dim)
        jacs = _on_rows("jacobian", jac, points, shape, at=lambda i: f"sample {i}")
        diffs = (_on_rows("jacobian", jac, shifted, shape, at=lambda i: f"shifted sample {i}")
                 - jacs) / delta
        n1 = float(np.max(hilbert.op_norms(jacs)))
        n2 = float(np.max(hilbert.op_norms(diffs)))
    return BallBounds(
        center=center,
        radius=float(radius),
        N1=BOUND_INFLATION * n1,
        N2=max(BOUND_INFLATION * n2, N2_FLOOR),
        samples=samples,
    )
