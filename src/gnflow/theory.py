"""Convergence certificates and the integral-inequality checks behind them.

``certify`` evaluates, for a concrete problem instance, every hypothesis
that guarantees the coupled flow stays inside the shrinking ball
||x(t) - xhat|| < R*eps(t): derivative bounds on a ball, the schedule
decay constant, the initial inverse quality, the contraction constant k,
the rate constant lambda, and the source-type condition. Each instance
constant is computed once per call, and each inequality is defined once,
in ``_evaluate``. The two ``*_check`` functions numerically verify the
estimates that argument rests on: a Riccati-type envelope and an
operator Gronwall bound.

Scope. For every B0, eps0 ||B0|| + ||Λ0|| >= 1 - λmin ||B0||, where Λ0 =
I - B0 (M + eps0 I), M = F'(xhat)* F'(xhat) and λmin is the smallest
eigenvalue of M: apply Λ0 to a unit eigenvector of λmin. So the radius
numerator 1 - b - eps0 ||B0|| - ||Λ0|| - b eps0 of :func:`canonical_R`
is at most λmin ||B0|| - b (1 + eps0), and a certificate needs λmin >
b (1 + eps0) / ||B0||: F'(xhat) must be well-posed at the scale of eps0,
and no certificate exists when F'(xhat) has a null space. This sits
uneasily with the paper's ill-posed equations. Whether the theorem needs
it, or the constant k as transcribed here (which adds eps0 ||B0|| and
||Λ0||) is wrong, is an open question that the paper's abstract alone
cannot settle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import hilbert
from .flow import mismatch_operator, solution_gram
from .integrator import NON_FINITE_STEP, advance, rk4, step_count
from .problem import BallBounds, NonlinearProblem, check_root, estimate_bounds

#: Relative spectral cutoff for the source-condition pseudo-inverse, and
#: the relative residual that decides the source check. The range of
#: F'(xhat)*F'(xhat) is generally not closed, so membership is reported
#: as a thresholded residual rather than decided exactly.
SOURCE_TOL = 1e-8

#: Safety factor applied on top of the canonical ball radius; the radius
#: inequality holds with equality at the canonical choice, so a bare
#: float comparison there would be a coin flip.
R_INFLATION = 1e-6


@dataclass
class Certificate:
    """Computed constants and hypothesis checks for one problem instance."""

    N1: float
    N2: float
    b: float
    eps0: float
    B0_norm: float
    Lambda0_norm: float
    k: float
    R: float
    lam: float
    w: np.ndarray
    w_norm: float
    source_residual: float
    checks: dict
    notes: str = ""

    @property
    def overall(self) -> bool:
        """True iff every check passed."""
        return all(self.checks.values())


def _radius_numerator(b, eps0, B0_norm, Lambda0_norm) -> float:
    """The numerator of :func:`canonical_R`, which no derivative bound enters.
    Raises ValueError unless it is positive, b and eps0 positive and finite,
    and the norms nonnegative and finite (a NaN would pass ``<= 0``)."""
    hilbert.positive("b", b)
    hilbert.positive("eps0", eps0)
    hilbert.nonnegative("B0_norm", B0_norm)
    hilbert.nonnegative("Lambda0_norm", Lambda0_norm)
    numerator = 1.0 - b - eps0 * B0_norm - Lambda0_norm - b * eps0
    if numerator <= 0:
        raise ValueError(
            "constants too large for a convergence certificate "
            f"(radius numerator {numerator:.6e} <= 0)"
        )
    return numerator


def canonical_R(N1, N2, b, eps0, B0_norm, Lambda0_norm) -> float:
    """The ball radius that makes the radius inequality sharp.

    R = (1 - b - eps0*||B0|| - ||Lambda0|| - b*eps0)
        / ((5 + 3*eps0*||B0||) * N1 * N2)

    With this R the contraction check is equivalent to the numerator
    being positive, and the lower bound 1/R <= lambda holds with
    equality. N1 and N2 must be positive and finite; the numerator's
    inputs and sign are checked by :func:`_radius_numerator`.
    """
    hilbert.positive("N1", N1)
    hilbert.positive("N2", N2)
    numerator = _radius_numerator(b, eps0, B0_norm, Lambda0_norm)
    return numerator / ((5.0 + 3.0 * eps0 * B0_norm) * N1 * N2)


def solve_source(p: NonlinearProblem, xhat, x0) -> tuple[np.ndarray, float]:
    """Minimum-norm w with F'(xhat)*F'(xhat) w ~= xhat - x0.

    Spectral pseudo-inverse with relative cutoff :data:`SOURCE_TOL`;
    returns the candidate w and the residual ||F'*F' w - (xhat - x0)||.
    The source condition is taken to hold when the residual is below
    SOURCE_TOL * ||xhat - x0||.
    """
    xhat = hilbert.as_vector(xhat, dim=p.dim)
    x0 = hilbert.as_vector(x0, dim=p.dim)
    rhs = xhat - x0
    if np.linalg.norm(rhs) == 0.0:
        return np.zeros(p.dim), 0.0
    M = solution_gram(p, xhat)
    # Not dead code: J.T @ J is exactly symmetric on OpenBLAS's SkylakeX
    # kernels for C, F, transposed and strided J (n 1-16), but not on its
    # Haswell and Prescott kernels for strided J at odd n >= 9.
    M = 0.5 * (M + M.T)
    evals, evecs = np.linalg.eigh(M)
    cutoff = SOURCE_TOL * max(float(evals[-1]), 0.0)
    coeff = evecs.T @ rhs
    inv = np.where(evals > cutoff, coeff / np.where(evals > cutoff, evals, 1.0), 0.0)
    w = evecs @ inv
    residual = float(np.linalg.norm(M @ w - rhs))
    return w, residual


class _InstanceConstants(NamedTuple):
    """The validated instance and the constants its radius search needs."""

    xhat: np.ndarray
    x0: np.ndarray
    eps0: float
    b: float
    B0_norm: float
    Lambda0_norm: float
    offset: float  # ||x0 - xhat||


def _instance_constants(p: NonlinearProblem, xhat, x0, s, B0) -> _InstanceConstants:
    """Validate the instance and compute its constants, each once. xhat must
    be a root of F, since no constant depends on F's values."""
    xhat = hilbert.as_vector(xhat, dim=p.dim)
    check_root(p, xhat)
    x0 = hilbert.as_vector(x0, dim=p.dim)
    B0 = hilbert.as_operator(B0, dim=p.dim)
    eps0 = hilbert.positive("eps0", s.eps(0.0))
    b0_norm, lambda0_norm = hilbert.op_norms(
        np.stack([B0, mismatch_operator(p, xhat, B0, eps0)]))
    return _InstanceConstants(
        xhat=xhat,
        x0=x0,
        eps0=eps0,
        b=hilbert.positive("b", s.b_constant()),
        B0_norm=float(b0_norm),
        Lambda0_norm=float(lambda0_norm),
        offset=float(np.linalg.norm(x0 - xhat)),
    )


def _evaluate(p: NonlinearProblem, c: _InstanceConstants, bounds: BallBounds,
              R: float) -> Certificate:
    """The certificate of instance ``c`` on ``bounds`` at ball radius R."""
    N1, N2, eps0, b = bounds.N1, bounds.N2, c.eps0, c.b
    for name, val in (("N1", N1), ("N2", N2), ("R", R)):
        hilbert.positive(name, val)
    # N1 and N2 bound F' and F'' only on the ball they were sampled on, so
    # it must hold the certified ball U(xhat, R*eps0).
    center = hilbert.as_vector(bounds.center, dim=p.dim)
    reach = float(np.linalg.norm(center - c.xhat)) + R * eps0
    if not reach <= bounds.radius:
        raise ValueError(
            f"bounds do not cover the certified ball: ||center - xhat|| + R*eps0 = "
            f"{reach:.6e} > radius {bounds.radius:.6e}"
        )
    k = 2.0 * N1 * N2 * R + b + eps0 * c.B0_norm + c.Lambda0_norm
    # Solved here, not with the other constants, so a failed radius search skips it.
    w, source_residual = solve_source(p, c.xhat, c.x0)
    w_norm = float(np.linalg.norm(w))
    # Without a contraction margin lambda is undefined, recorded as inf, and
    # every lambda-based check fails.
    margin = 1.0 - k - b * eps0
    has_margin = margin > 0
    lam = 3.0 * N1 * N2 * (1.0 + eps0 * c.B0_norm) / margin if has_margin else math.inf
    checks = {
        # k + b*eps0 < 1
        "contraction": k + b * eps0 < 1.0,
        # 1/R <= lambda
        "radius": has_margin and 1.0 / R <= lam,
        # lambda < (1 - k - b*eps0) / (2*(k + 2 + eps0*||B0||)*||w||),
        # vacuous at w = 0
        "source_norm": has_margin and (
            w_norm == 0.0
            or lam < margin / (2.0 * (k + 2.0 + eps0 * c.B0_norm) * w_norm)
        ),
        # lambda < eps0 / ||x0 - xhat||, vacuous at x0 = xhat
        "initial_offset": has_margin and (c.offset == 0.0 or lam < eps0 / c.offset),
        # ||F'*F' w - (xhat - x0)|| <= SOURCE_TOL * ||xhat - x0||
        "source_residual": c.offset == 0.0 or source_residual <= SOURCE_TOL * c.offset,
    }

    notes = ""
    if w_norm > 0.0 and source_residual > 0.0:
        notes = "w is the minimum-norm candidate from a spectral cutoff pseudo-inverse"

    return Certificate(
        N1=N1,
        N2=N2,
        b=b,
        eps0=eps0,
        B0_norm=c.B0_norm,
        Lambda0_norm=c.Lambda0_norm,
        k=k,
        R=R,
        lam=lam,
        w=w,
        w_norm=w_norm,
        source_residual=source_residual,
        checks=checks,
        notes=notes,
    )


def certify(
    p: NonlinearProblem,
    xhat,
    x0,
    s,
    B0,
    bounds: BallBounds,
    R: float,
) -> Certificate:
    """Evaluate every certificate inequality; failures are recorded, not raised.

    The checks, in order: contraction (k + b*eps0 < 1), the radius lower
    bound (1/R <= lambda), the source-norm bound, the initial-offset
    bound, and the source residual. ``overall`` is their conjunction.
    When ||w|| = 0 the source-norm bound is vacuous and counts as a pass;
    when the contraction margin 1 - k - b*eps0 is nonpositive, lambda is
    undefined (recorded as inf) and the lambda-based checks fail.
    Shares its constants pass and inequality code with
    :func:`certify_with_canonical_R`, so the two agree exactly at its
    ``bounds`` and R. Raises ValueError when xhat is not a root of F
    (:func:`~gnflow.problem.check_root`), when N1, N2, R, b or eps0 is not
    positive and finite, and then when ``bounds`` does not cover the
    certified ball: its center must be a finite vector of the problem's
    dimension, and ||bounds.center - xhat|| + R*eps0 at most
    ``bounds.radius``, since N1 and N2 hold only on that ball.
    """
    return _evaluate(p, _instance_constants(p, xhat, x0, s, B0), bounds, R)


def certify_with_canonical_R(
    p: NonlinearProblem,
    xhat,
    x0,
    s,
    B0,
    seed: int = 0,
) -> tuple[Certificate, BallBounds]:
    """Certify with R chosen canonically, self-consistently with the ball.

    The derivative bounds must cover U(xhat, R*eps(0)) while R itself
    depends on them, so the sampling radius is grown until it contains
    the certified ball, which ``estimate_bounds`` samples at its default
    64 points; the bounds of a constant Jacobian are exact, draw no
    sample, and take its norm once per problem. R is inflated by
    ``R_INFLATION`` relative so the sharp radius inequality holds strictly
    in floating point (a larger R keeps the certificate valid).

    The instance constants are computed once, before the radius loop, and
    the radius numerator of :func:`canonical_R` from them: no derivative
    bound enters it, so an instance whose numerator is not positive
    raises before any bound is sampled. Each pass samples afresh, centred
    on a copy of ``xhat``, so changing the returned bounds cannot change
    the problem's known solution.

    Raises ValueError when xhat is not a root of F
    (:func:`~gnflow.problem.check_root`), when no positive canonical
    radius exists, or when the radius iteration does not close.
    """
    c = _instance_constants(p, xhat, x0, s, B0)
    _radius_numerator(c.b, c.eps0, c.B0_norm, c.Lambda0_norm)
    radius = max(1.0, 2.0 * c.offset)
    for _ in range(8):
        bounds = estimate_bounds(p, c.xhat.copy(), radius, seed=seed)
        R = canonical_R(bounds.N1, bounds.N2, c.b, c.eps0, c.B0_norm, c.Lambda0_norm)
        R_used = R * (1.0 + R_INFLATION)
        if R_used * c.eps0 <= radius:
            return _evaluate(p, c, bounds, R_used), bounds
        radius = 1.1 * R_used * c.eps0
    raise ValueError("ball radius iteration did not close after 8 passes")


def riccati_envelope_check(v_samples, mu: Callable[[float], float]) -> bool:
    """True iff v(t) < 1/mu(t) at every sample.

    ``v_samples`` is a sequence of (t, v) pairs from an integrated
    trajectory, ``mu`` the positive envelope function; the certificate
    argument instantiates mu(t) = lambda/eps(t) against v = ||x - xhat||.
    Raises ValueError, naming the sample, unless every t and every v is
    nonnegative and finite.
    """
    samples = list(v_samples)
    if not samples:
        raise ValueError("v_samples must be nonempty")
    for t, v in samples:
        hilbert.nonnegative("t", t)
        hilbert.nonnegative(f"v({t})", v)
        m = mu(t)
        if not m > 0:
            raise ValueError(f"mu(t) must be positive, got {m} at t={t}")
        if not v < 1.0 / m:
            return False
    return True


def gronwall_check(
    A_path: Callable[[float], np.ndarray],
    G_path: Callable[[float], np.ndarray],
    V0,
    gamma: Callable[[float], float],
    T: float,
    h: float = 0.01,
) -> float:
    """Max violation of the operator Gronwall bound along dV/dt = G - A V.

    The bound checked at every step time t is

        ||V(t)|| <= exp(-int_0^t gamma) * [int_0^t ||G(s)|| exp(int_0^s gamma) ds + ||V0||].

    V and both accumulated integrals q = int gamma and
    r = int ||G|| exp(q) are integrated by the integrator's one RK4
    formula on the same step grid, so the quadrature matches the
    integration order; the constant coefficient case A = gamma*I, G = 0
    then meets the bound with equality to integrator precision. Neither
    integral depends on V, and q' = gamma(t) not on q, so the
    quadratures run before the step loop: one ``rk4`` call over every
    step at once gives q's increments, whose running sum is q, and a
    second, at those q, gives r's (each exp(q) is ``math.exp`` of one
    value). Only V is advanced step by step, by ``advance``. The values
    are those of stepping q, r and V together, bit for bit.

    ``gamma`` must lower-bound the symmetric part of A at every step
    time, verified by eigenvalue (one batched ``eigvalsh`` over all step
    times, before the first step) and reported as an error naming the
    first failing time; a step that fails before that time ends the check
    first, and a step fails when its V, q or r is not finite, as when
    exp(q) overflows. ``A_path``, ``G_path`` and ``gamma`` are evaluated
    once per distinct stage time, all before the first step, and must
    return n x n operators like V0. The values of each path are stacked
    and checked once by :func:`hilbert.returned`, G's before A's, before
    the first step; a ValueError names the path and the first time at
    which it fails. Then every value of ``gamma`` must pass
    :func:`hilbert.positive`, and the first that does not is named with
    its time, as in ``gamma(0.6) must be positive and finite, got inf``.

    Returns max over step times of ||V(t)|| - bound(t); the lemma holds
    when this is at most a small positive tolerance. Raises ValueError
    unless ``T`` and ``h`` are positive and finite with ``T`` at least
    one step, and FloatingPointError at the first step whose V, q or r
    leaves the finite range.
    """
    q, r, Vs = _gronwall_steps(A_path, G_path, V0, gamma, T, h)
    v0_norm, *v_norms = hilbert.op_norms(Vs).tolist()
    # 0.0 is the violation at t = 0, where ||V0|| equals the bound
    return float(max([0.0] + [v - math.exp(-qk) * (rk + v0_norm)
                              for v, qk, rk in zip(v_norms, q[1:].tolist(), r[1:].tolist())]))


def _exps(q: np.ndarray) -> np.ndarray:
    """``math.exp`` of each entry, as an array; an exp that overflows is inf.

    numpy's vectorized exp can differ from ``math.exp`` in the last place,
    so each value goes through ``math.exp``, one at a time, and the check's
    values do not depend on which exp numpy dispatches to.
    """
    values = q.tolist()
    try:
        return np.array([math.exp(v) for v in values])
    except OverflowError:
        return np.array([_exp(v) for v in values])


def _exp(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _gronwall_steps(A_path, G_path, V0, gamma, T, h) -> tuple:
    """The per-step values that :func:`gronwall_check` reduces to its
    violation, with its checks and its errors: q and r at every step time
    k*h, k = 0..n_steps (float64 arrays), and the list of V there, V0
    first."""
    V0 = hilbert.as_operator(V0)
    n = V0.shape[0]
    n_steps = step_count("T", hilbert.positive("T", T), hilbert.positive("h", h))

    # The coefficients do not depend on the state, and every time they are
    # needed at is known before the loop: 0, then per step its start, its
    # midpoint (RK4's two mid-stages share it), its end t+h and its grid
    # time k*h, which usually equal the next step's start. Each distinct
    # time is evaluated once, in that order, into one stack per path, and
    # every ||G(t)|| comes from one batched norm call.
    starts = [(k - 1) * h for k in range(1, n_steps + 1)]
    times = [0.0]
    for k, t in enumerate(starts, 1):
        times += [t, t + h / 2.0, t + h, k * h]
    index, Gs, As, gammas = {}, [], [], []
    for t in times:
        if t not in index:
            index[t] = len(index)
            Gs.append(G_path(t))
            As.append(A_path(t))
            gammas.append(gamma(t))
    # Each path's values are dropped once stacked, so the check never holds
    # more than one extra copy of them.
    distinct = list(index)
    at = lambda i: f"t={distinct[i]}"
    G_stack = hilbert.returned("G_path(t)", Gs, (n, n), at=at)
    del Gs
    A_stack = hilbert.returned("A_path(t)", As, (n, n), at=at)
    del As
    # gamma too is checked at every time, before the first step; the names of
    # the times are formatted only when a value fails
    if not all(0 < g < math.inf for g in gammas):
        for t, g in zip(distinct, gammas):
            hilbert.positive(f"gamma({t})", g)
    g_norms = hilbert.op_norms(G_stack)

    # The smallest symmetric eigenvalue at every step time k*h, from one
    # batched eigvalsh; each is checked only when the loop reaches its time.
    grid = [k * h for k in range(n_steps + 1)]
    A_grid = A_stack[[index[t] for t in grid]]
    smallest_eig = np.linalg.eigvalsh(0.5 * (A_grid + A_grid.transpose(0, 2, 1))).min(axis=1)

    def check_coercive(k: int) -> None:
        t = grid[k]
        g = gammas[index[t]]
        smallest = float(smallest_eig[k])
        if smallest < g - 1e-10 * (1.0 + abs(g)):
            raise ValueError(
                f"coercivity fails at t={t}: smallest symmetric eigenvalue "
                f"{smallest:.6e} < gamma {g:.6e}"
            )

    # The quadratures, every step at once: ``rk4`` from t = 0 calls its
    # rate at the stage offsets 0, h/2 and h, which pick out each step's
    # start, midpoint and end. q's rate is gamma alone, so the step
    # increments are summed in step order; r's rate reads q at its stages,
    # which ride as the B block from each step's starting q. A non-finite
    # value is left for the loop to raise at its step.
    stage = {offset: np.array([index[t + offset] for t in starts])
             for offset in (0.0, h / 2.0, h)}
    gamma_all = np.array(gammas)

    def q_rate(offset, _q, _):
        return gamma_all[stage[offset]], None

    def r_rate(offset, _r, q_stage):
        i = stage[offset]
        return g_norms[i] * _exps(q_stage), gamma_all[i]

    zeros = np.zeros(n_steps)
    with np.errstate(all="ignore"):
        dq, _ = rk4(q_rate, zeros, None, 0.0, h)
        q = np.add.accumulate(np.concatenate(([0.0], dq)))
        dr, _ = rk4(r_rate, zeros, q[:-1], 0.0, h)
        r = np.add.accumulate(np.concatenate(([0.0], dr)))
    finite = np.isfinite(q) & np.isfinite(r)
    first_bad = int(np.argmin(finite)) if not finite.all() else None

    def rhs(t, V, _):
        i = index[t]
        return G_stack[i] - np.dot(A_stack[i], V), None

    V = V0
    check_coercive(0)
    Vs = [V0]
    for k in range(1, n_steps + 1):
        V, _ = advance(rhs, V, None, (k - 1) * h, h, "rk4")
        if k == first_bad:
            raise FloatingPointError(NON_FINITE_STEP)
        check_coercive(k)
        Vs.append(V)
    return q, r, Vs
