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
from .problem import NonlinearProblem, eval_F, jacobian


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


def _linearize(p: NonlinearProblem, s, x0, x, t: float) -> tuple:
    """(eps(t), J = F'(x), the regularized gradient J* F(x) + eps(t)(x - x0)).

    ``x`` is checked once, by :func:`problem.jacobian`, and F is evaluated
    at the array it checked (:func:`hilbert.returned` checks the value).
    """
    x0 = hilbert.as_vector(x0, dim=p.dim)
    eps = s.eps(t)
    x = np.asarray(x, dtype=float)  # the very array jacobian checks
    J = jacobian(p, x)
    grad = J.T @ hilbert.returned("F", p.f(x), (p.dim,)) + eps * (x - x0)
    return eps, J, grad


def _inverse_velocity(J: np.ndarray, eps: float, B: np.ndarray) -> np.ndarray:
    """B' = -[(J* J + eps I) B - I], the inverse track's velocity."""
    I = hilbert.identity(len(B))
    return -((J.T @ J + eps * I) @ B - I)


def _mismatch(gram: np.ndarray, B: np.ndarray, eps: float) -> np.ndarray:
    """I - B (gram + eps I), with gram = F'(xhat)* F'(xhat)."""
    I = hilbert.identity(len(B))
    return I - B @ (gram + eps * I)


def direct_rhs(p: NonlinearProblem, s, x0, x, t: float) -> np.ndarray:
    """x-velocity of the inversion-based flow at time t."""
    eps, J, grad = _linearize(p, s, x0, x, t)
    return -hilbert.solve_regularized(J.T @ J, eps, grad)


def coupled_rhs(p: NonlinearProblem, s, x0, x, B, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(x', B') of the inverse-tracking flow at the point (x, B) and time t."""
    if B is None:
        raise ValueError("coupled flow needs the inverse track B")
    B = hilbert.as_operator(B, dim=p.dim)
    eps, J, grad = _linearize(p, s, x0, x, t)
    return -B @ grad, _inverse_velocity(J, eps, B)


def solution_gram(p: NonlinearProblem, xhat: np.ndarray) -> np.ndarray:
    """F'(xhat)* F'(xhat) for a validated point ``xhat``, read-only: formed
    once per problem and point, in the problem's memo, and shared."""
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
    of the identity; the standard start for the coupled flow.
    """
    x0 = hilbert.as_vector(x0, dim=p.dim)
    J = jacobian(p, x0)
    return hilbert.solve_regularized(J.T @ J, eps0, hilbert.identity(p.dim))


def scaled_identity_inverse(p: NonlinearProblem, x0, eps0: float) -> np.ndarray:
    """I / (||F'(x0)||^2 + eps0), the no-initial-inversion start."""
    hilbert.positive("eps0", eps0)
    x0 = hilbert.as_vector(x0, dim=p.dim)
    n1 = hilbert.op_norm(jacobian(p, x0))
    return hilbert.identity(p.dim) / (n1**2 + eps0)


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
        ops = [st.B, _inverse_velocity(jacobian(p, st.x), eps, st.B)]
        if xhat is not None:
            Gh = solution_gram(p, xhat)
            ops += [_mismatch(Gh, st.B, eps), st.B @ Gh]
        norms = [float(v) for v in hilbert.op_norms(ops)]
        out.B_norm, out.inverse_residual = norms[:2]
        if xhat is not None:
            out.lambda_norm, out.D_norm = norms[2:]
    return out
