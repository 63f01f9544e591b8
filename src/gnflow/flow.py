"""Right-hand sides of the two continuous Gauss-Newton methods.

The direct flow inverts the regularized normal operator at every
evaluation:

    x' = -[F'(x)* F'(x) + eps(t) I]^{-1} [F'(x)* F(x) + eps(t)(x - x0)]

The coupled flow carries an evolving approximation B(t) of that inverse
instead of factorizing:

    x' = -B [F'(x)* F(x) + eps(t)(x - x0)]
    B' = -[(F'(x)* F'(x) + eps(t) I) B - I]

When B equals the exact regularized inverse the two x-flows coincide and
B' vanishes, which the tests use as an equivalence oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import hilbert
from .problem import NonlinearProblem, eval_F, fd_jacobian, fixed_jacobian, jacobian


@dataclass
class SolverState:
    """Flow time, iterate, and (for the coupled method) the inverse track."""

    t: float
    x: np.ndarray
    B: Optional[np.ndarray] = None

    def __post_init__(self):
        self.x = hilbert.as_vector(self.x)
        if self.B is not None:
            self.B = hilbert.as_operator(self.B, dim=self.x.size)
        hilbert.nonnegative("t", self.t)


@dataclass
class FlowDiagnostics:
    """Norms recorded along a trajectory.

    Fields requiring the known solution (err_norm, lambda_norm, D_norm)
    or the inverse track (B_norm, lambda_norm, inverse_residual, D_norm)
    are None when unavailable.
    """

    eps: float
    residual_norm: float
    err_norm: Optional[float] = None
    B_norm: Optional[float] = None
    lambda_norm: Optional[float] = None
    inverse_residual: Optional[float] = None
    D_norm: Optional[float] = None


def _shaped(name: str, value, shape: tuple) -> np.ndarray:
    """What the caller's function ``name`` returned, as a float64 array of
    ``shape``: a wrong shape raises ValueError through
    :func:`hilbert.returned`, in its wording; the entries are not checked."""
    arr = np.asarray(value, dtype=float)
    if arr.shape != shape:
        hilbert.returned(name, arr, shape)
    return arr


def _gradient(p: NonlinearProblem, x0, x, J: np.ndarray, eps: float) -> np.ndarray:
    """The regularized gradient J* F(x) + eps (x - x0), with J = F'(x)."""
    return J.T @ _shaped("F", p.f(x), (p.dim,)) + eps * (x - x0)


def _inverse_velocity(G: np.ndarray, eps: float, B: np.ndarray) -> np.ndarray:
    """B' = -[(G + eps I) B - I], the inverse track's velocity, with the
    Gram G = ``np.dot(J.T, J)`` of J = F'(x)."""
    I = hilbert.identity(len(B))
    return -(np.dot(G + eps * I, B) - I)


def _mismatch(gram: np.ndarray, B: np.ndarray, eps: float) -> np.ndarray:
    """I - B (gram + eps I), with gram = F'(xhat)* F'(xhat)."""
    I = hilbert.identity(len(B))
    return I - B @ (gram + eps * I)


def _symmetric_gram(J: np.ndarray) -> np.ndarray:
    """F'* F' of J = F'(x) as ``np.dot(J.T, J)``, exactly symmetric: the
    precondition of :func:`hilbert.solve_shifted`.

    The rule of the package's Gram products, ``np.dot`` and ``@`` alike:
    for a J that is aligned and C- or F-contiguous, numpy hands the
    product to BLAS ``syrk``, which forms one triangle and mirrors it, so
    the Gram is symmetric bit for bit and is returned as it is. Any other
    J (strided, transposed strided, or contiguous but not aligned) is
    copied and multiplied by ``gemm``, whose two triangles can differ in
    the last bit: on OpenBLAS's Haswell and Prescott kernels at n = 9, 11,
    13 and 15, on Nehalem at n = 5-7, 9-11 and 13-15 (SkylakeX and
    Sandybridge measured symmetric, n 1-16). Such a Gram is returned as
    :func:`hilbert.symmetric_part` of it, which the shift follows, as in
    :func:`hilbert.solve_regularized`.
    """
    G = np.dot(J.T, J)
    flags = J.flags
    if flags.aligned and (flags.c_contiguous or flags.f_contiguous):
        return G
    return hilbert.symmetric_part(G)


def direct_rhs(p: NonlinearProblem, s, x0, x, t: float) -> np.ndarray:
    """x-velocity of the inversion-based flow at time t: the stage kernel
    of a run that :func:`integrate` has checked.

    ``x0`` and ``x`` are float64 vectors of the problem's dimension, and
    ``x0`` is taken as it is. ``s.eps(t)`` checks the time. ``x`` and
    F'(x) are checked by :func:`problem.jacobian` before F is called, so
    neither F nor F' sees a non-finite point. F's value is checked for
    shape only, the Gram F'* F' is made exactly symmetric by
    :func:`_symmetric_gram`, and the solve, :func:`hilbert.solve_shifted`,
    checks no array. So a non-finite F'* F' (a finite F' whose square
    overflows) or gradient either makes the factorization fail, which
    raises FactorizationError, or makes the velocity non-finite, which
    :func:`integrator.advance` rejects at the end of the step.
    """
    eps = s.eps(t)
    J = jacobian(p, x)
    return -hilbert.solve_shifted(_symmetric_gram(J), eps, _gradient(p, x0, x, J, eps))


def coupled_rhs(p: NonlinearProblem, s, x0, x, B, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(x', B') of the inverse-tracking flow at the point (x, B) and time
    t: the stage kernel of a run that :func:`integrate` has checked.

    ``x0`` and ``x`` are float64 vectors and ``B`` a float64 matrix of the
    problem's dimension, taken as they are; a missing ``B`` raises
    ValueError and ``s.eps(t)`` checks the time. F'(x) is ``p.jac(x)``,
    checked for shape only like F's value, so F and F' may be called at a
    non-finite stage point; without ``p.jac`` it is
    :func:`problem.fd_jacobian`, which rejects such a point. A non-finite
    point, F, F' or B makes the velocities non-finite, and the step's
    result with them, which :func:`integrator.advance` rejects.

    For a :func:`problem.constant_jacobian`, F' and its Gram are the pair
    that :func:`problem.fixed_jacobian` keeps, checked once per problem,
    so no stage calls ``p.jac`` or forms F'* F'; the marker's promise
    keeps the bits.
    """
    if B is None:
        raise ValueError("coupled flow needs the inverse track B")
    eps = s.eps(t)
    if p._constant_jac:
        J, G = fixed_jacobian(p, x)
    else:
        if p.jac is None:
            J = fd_jacobian(p, x)
        else:
            J = _shaped("jacobian", p.jac(x), (p.dim, p.dim))
        G = np.dot(J.T, J)
    return np.dot(-B, _gradient(p, x0, x, J, eps)), _inverse_velocity(G, eps, B)


def solution_gram(p: NonlinearProblem, xhat: np.ndarray) -> np.ndarray:
    """F'(xhat)* F'(xhat) for a validated point ``xhat``, read-only: formed
    once per problem and point, in the problem's memo, and shared. For a
    :func:`problem.constant_jacobian` it is the one Gram that
    :func:`problem.fixed_jacobian` keeps, so a problem evaluates F' and
    forms its Gram once for the stages and every solution point alike."""
    if p._constant_jac:
        return fixed_jacobian(p, xhat)[1]

    def build():
        Jh = jacobian(p, xhat)
        gram = Jh.T @ Jh
        gram.flags.writeable = False
        return gram

    return p.constant(("solution_gram", xhat.tobytes()), build)


def mismatch_operator(p: NonlinearProblem, xhat, B, eps: float) -> np.ndarray:
    """I - B [F'(xhat)* F'(xhat) + eps*I], the inverse-tracking defect at
    the solution point."""
    xhat = hilbert.as_vector(xhat, dim=p.dim)
    B = hilbert.as_operator(B, dim=p.dim)
    return _mismatch(solution_gram(p, xhat), B, eps)


def initial_inverse(p: NonlinearProblem, x0, eps0: float) -> np.ndarray:
    """Exact regularized inverse at the initial iterate.

    One factorization of F'(x0)* F'(x0) + eps0 I, solved for the columns
    of the identity; the standard start for the coupled flow. A Gram that
    overflows raises ValueError, as a non-finite operator does.
    """
    x0 = hilbert.as_vector(x0, dim=p.dim)
    J = jacobian(p, x0)
    with np.errstate(all="ignore"):
        gram = J.T @ J
    return hilbert.solve_regularized(gram, eps0, hilbert.identity(p.dim))


def scaled_identity_inverse(p: NonlinearProblem, x0, eps0: float) -> np.ndarray:
    """I / (||F'(x0)||^2 + eps0), the no-initial-inversion start; a square
    that overflows raises ValueError, as a Gram does in :func:`initial_inverse`."""
    hilbert.positive("eps0", eps0)
    x0 = hilbert.as_vector(x0, dim=p.dim)
    n1 = float(hilbert.op_norms(jacobian(p, x0)[None])[0])
    try:
        return hilbert.identity(p.dim) / (n1**2 + eps0)
    except OverflowError:
        raise ValueError(f"||F'(x0)||^2 overflows, with ||F'(x0)|| = {n1}") from None


def diagnostics(
    p: NonlinearProblem, s, st: SolverState, xhat=None
) -> FlowDiagnostics:
    """Fill every norm available for the state ``st``.

    inverse_residual is ||B'|| of the B' :func:`coupled_rhs` returns at the
    current iterate; lambda_norm is ||Lambda|| of :func:`mismatch_operator`
    at the fixed solution point. F'(xhat)* F'(xhat) comes from
    :func:`solution_gram`, and the operator norms from one batched norm call.
    """
    eps = s.eps(st.t)
    residual = float(np.linalg.norm(eval_F(p, st.x)))
    out = FlowDiagnostics(eps=eps, residual_norm=residual)
    if xhat is not None:
        xhat = hilbert.as_vector(xhat, dim=p.dim)
        out.err_norm = float(np.linalg.norm(st.x - xhat))
    if st.B is not None:
        hilbert.positive("eps", eps)
        J = jacobian(p, st.x)
        ops = [st.B, _inverse_velocity(np.dot(J.T, J), eps, st.B)]
        if xhat is not None:
            Gh = solution_gram(p, xhat)
            ops += [_mismatch(Gh, st.B, eps), st.B @ Gh]
        norms = [float(v) for v in hilbert.op_norms(ops)]
        out.B_norm, out.inverse_residual = norms[:2]
        if xhat is not None:
            out.lambda_norm, out.D_norm = norms[2:]
    return out
