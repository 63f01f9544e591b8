"""The slow oracles the tests own, the builders the tests share, and the
hypothesis strategies that draw their inputs.

Every fast path of the package is held to one oracle below: the
column-by-column derivative kernels, the per-sample ball bounds, the
scipy Cholesky solve, the step-by-step integration and the per-step
Gronwall norms. A comparison against an oracle is exact
(``np.array_equal`` or ``==``): each oracle does the same arithmetic as
its fast path, in the plainest order.

The module is not named ``reference``: ``bench/run.py`` imports its own
``reference`` module, and one pytest process runs both suites.
"""

import dataclasses
import math

import numpy as np
import scipy.linalg
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gnflow import gallery
from gnflow.flow import SolverState, coupled_rhs, diagnostics, direct_rhs
from gnflow.hilbert import FactorizationError, op_norm
from gnflow.integrator import DIVERGENCE_LIMIT, advance, integrate, step
from gnflow.problem import (
    BOUND_INFLATION,
    FD_DEFAULT_STEP,
    N2_FLOOR,
    BallBounds,
    NonlinearProblem,
    _ball_points,
    jacobian,
)
from gnflow.schedule import PowerSchedule

# --- oracles: derivative kernels -----------------------------------------


def reference_poly_eval(coeffs, s):
    z = np.asarray(s) ** 2
    acc = np.zeros_like(np.asarray(s, dtype=float))
    for c in coeffs[::-1]:
        acc = z * (acc + c)
    return 1.0 + acc


def reference_poly_deriv(coeffs, s):
    s = np.asarray(s, dtype=float)
    z = s**2
    acc = np.zeros_like(s)
    for j in range(len(coeffs) - 1, -1, -1):
        acc = z * acc + 2.0 * (j + 1) * coeffs[j]
    return s * acc


def reference_renorm_residual(c, nodes):
    lam = -(1.0 + np.sum(c))
    v = lam * nodes
    u = reference_poly_eval(c, v)
    return lam * reference_poly_eval(c, nodes) + reference_poly_eval(c, u)


def reference_renorm_jacobian(c, nodes):
    n = len(c)
    lam = -(1.0 + np.sum(c))
    g_s = reference_poly_eval(c, nodes)
    v = lam * nodes
    u = reference_poly_eval(c, v)
    gp_v = reference_poly_deriv(c, v)
    gp_u = reference_poly_deriv(c, u)
    J = np.empty((n, n))
    for j in range(n):
        p = 2 * (j + 1)
        J[:, j] = -g_s + lam * nodes**p + u**p + gp_u * (v**p - gp_v * nodes)
    return J


def reference_autoconv_jacobian(x, n):
    ds = 1.0 / n
    first_row = np.zeros(n)
    first_row[0] = 2.0 * ds * x[0]
    return scipy.linalg.toeplitz(2.0 * ds * x, first_row)


def reference_fd_jacobian(p, x, h=FD_DEFAULT_STEP):
    J = np.empty((p.dim, p.dim))
    for j in range(p.dim):
        step = np.zeros(p.dim)
        step[j] = h
        J[:, j] = (np.asarray(p.f(x + step), dtype=float)
                   - np.asarray(p.f(x - step), dtype=float)) / (2.0 * h)
    return J


def reference_bounds(p, center, radius, samples, seed):
    """``estimate_bounds`` with one jacobian and one op_norm per matrix, sample by sample."""
    center = np.asarray(center, dtype=float)
    rng = np.random.default_rng(seed)
    points = _ball_points(center, radius, samples, rng)
    dirs = rng.standard_normal((samples, p.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    delta = 1e-4 * radius
    n1 = n2 = 0.0
    for x, d in zip(points, dirs):
        J = jacobian(p, x)
        n1 = max(n1, op_norm(J))
        n2 = max(n2, op_norm((jacobian(p, x + delta * d) - J) / delta))
    return BallBounds(center=center, radius=float(radius), N1=BOUND_INFLATION * n1,
                      N2=max(BOUND_INFLATION * n2, N2_FLOOR), samples=samples)


# --- oracles: linear algebra ---------------------------------------------


def reference_solve(G, eps, b):
    """scipy's cho_factor/cho_solve with the refinement pass of ``solve_regularized``."""
    M = G + eps * np.eye(len(G))
    M = 0.5 * (M + M.T)
    chol = scipy.linalg.cho_factor(M, lower=True, check_finite=False)
    y = scipy.linalg.cho_solve(chol, b, check_finite=False)
    return y + scipy.linalg.cho_solve(chol, b - M @ y, check_finite=False)


# --- oracles: integration ------------------------------------------------


def reference_integrate(p, s, st0, cfg, xhat=None, R=None):
    """Reference for ``integrate``: a plain loop of the public ``step``
    over the validated right-hand sides, with a SolverState rebuilt for
    every stage and step. Any leaner path through ``integrate`` must
    record these states bit for bit.

    Returns the recorded (t, x, B) triples and the termination tag.
    """
    x0 = st0.x

    def rhs(t, x, B):
        st = SolverState(t=t, x=x, B=B)
        if st.B is None:
            return direct_rhs(p, s, x0, st.x, st.t), None
        return coupled_rhs(p, s, x0, st.x, st.B, st.t)

    def ball_exit(st):
        return "ball" in cfg.monitors and np.linalg.norm(st.x - xhat) >= R * s.eps(st.t)

    def diverged(st):
        if "divergence" not in cfg.monitors:
            return False
        if np.linalg.norm(st.x) > DIVERGENCE_LIMIT:
            return True
        return st.B is not None and np.linalg.norm(st.B) > DIVERGENCE_LIMIT

    records = [st0]
    diagnostics(p, s, st0, xhat)

    def result(tag):
        return [(st.t, st.x, st.B) for st in records], tag

    if ball_exit(st0):
        return result("ball_exit")
    if diverged(st0):
        return result("divergence")

    def try_record(st):
        if records[-1].t >= st.t:
            return True
        try:
            diagnostics(p, s, st, xhat)
        except (FloatingPointError, ValueError):
            return False
        records.append(st)
        return True

    n_steps = int(math.floor(cfg.horizon_T / cfg.step_h + 1e-9))
    st = st0
    for k in range(1, n_steps + 1):
        try:
            st = step(rhs, st, (k - 1) * cfg.step_h, cfg.step_h, cfg.method)
        except (FloatingPointError, ValueError, FactorizationError):
            try_record(st)
            return result("numerical_error")
        st = SolverState(t=k * cfg.step_h, x=st.x, B=st.B)
        if ball_exit(st):
            try_record(st)
            return result("ball_exit")
        if diverged(st):
            try_record(st)
            return result("divergence")
        if k % cfg.record_every == 0 or k == n_steps:
            if not try_record(st):
                return result("numerical_error")
    return result("horizon_reached")


def assert_same_run(p, s, st0, cfg, xhat=None, R=None):
    """``integrate`` records the reference's states bit for bit; returns the tag."""
    traj = integrate(p, s, st0, cfg, xhat=xhat, R=R)
    ref, tag = reference_integrate(p, s, st0, cfg, xhat=xhat, R=R)
    assert traj.termination == tag
    assert len(traj.records) == len(ref)
    for (st, _), (t, x, B) in zip(traj.records, ref):
        assert st.t == t
        assert np.array_equal(st.x, x)
        assert (st.B is None) == (B is None)
        if B is not None:
            assert np.array_equal(st.B, B)
    return tag


# --- oracles: the Gronwall lemma -----------------------------------------


def random_spd_path(seed):
    """The randomized SPD coefficient path of seed ``seed``: A(t) = base +
    sin(t) S with base SPD and S symmetric, G = 0, gamma(t) the smallest
    symmetric eigenvalue of A(t), V0 random, over [0, 1.5].
    Returns (A_path, G_path, V0, gamma, T)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    base = Q @ np.diag(rng.uniform(0.5, 2.0, size=n)) @ Q.T
    S = rng.standard_normal((n, n))
    S = 0.1 * (S + S.T)
    A_path = lambda t: base + np.sin(t) * S
    gamma = lambda t: float(np.min(np.linalg.eigvalsh(0.5 * (A_path(t) + A_path(t).T))))
    return A_path, lambda t: np.zeros((n, n)), rng.standard_normal((n, n)), gamma, 1.5


def lemma_battery_path(i):
    """Path i of the lemma battery (``verify --suite lemmas``): 0 is the
    constant-coefficient case, 1..20 the randomized SPD paths (seeds
    0..19), and 21 the scalar path with positive forcing.
    Returns (A_path, G_path, V0, gamma, T)."""
    if i == 0:
        return (lambda t: 1.3 * np.eye(3), lambda t: np.zeros((3, 3)), np.eye(3),
                lambda t: 1.3, 2.0)
    if i == 21:
        return (lambda t: np.array([[0.8]]), lambda t: np.array([[0.5 + 0.1 * np.sin(t)]]),
                np.array([[1.0]]), lambda t: 0.8, 2.0)
    return random_spd_path(i - 1)


def gronwall_reference(A_path, G_path, V0, gamma, T, h):
    """The Gronwall violation with one op_norm per step, in step order."""
    def rhs(t, qr, V):
        A, G = A_path(t), G_path(t)
        return np.array([gamma(t), op_norm(G) * math.exp(qr[0])]), G - A @ V

    qr, V = np.zeros(2), V0
    v0_norm = op_norm(V0)
    worst = 0.0
    for k in range(1, int(math.floor(T / h + 1e-9)) + 1):
        qr, V = advance(rhs, qr, V, (k - 1) * h, h, "rk4")
        worst = max(worst, op_norm(V) - math.exp(-qr[0]) * (qr[1] + v0_norm))
    return worst


# --- builders -------------------------------------------------------------


def affine_problem(A, xhat):
    """F(x) = A (x - xhat) with the constant Jacobian A, not rowwise."""
    A = np.asarray(A, dtype=float)
    return NonlinearProblem(
        dim=A.shape[0],
        f=lambda x: A @ (x - xhat),
        jac=lambda x: A.copy(),
        known_solution=xhat,
    )


def identity_problem(n=3, xhat=None):
    """F(x) = x - xhat; xhat is 1 + i/n unless given. Returns (problem, xhat)."""
    if xhat is None:
        xhat = 1.0 + np.arange(n) / n
    return affine_problem(np.eye(len(xhat)), xhat), xhat


def planted_source(rng):
    """A well-conditioned affine problem of size 2..8 and a start x0 = xhat -
    A*A v with a random v, so that the source element is v.
    Returns (problem, xhat, x0, v)."""
    n = int(rng.integers(2, 9))
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = U @ np.diag(rng.uniform(0.5, 2.0, size=n)) @ V.T
    xhat = rng.standard_normal(n)
    v = rng.standard_normal(n)
    return affine_problem(A, xhat), xhat, xhat - A.T @ A @ v, v


def without_jacobian(p):
    """The same problem with no analytic Jacobian: its derivative is finite differences."""
    return dataclasses.replace(p, jac=None)


def unmarked(p):
    """The same problem with its Jacobian behind a wrapper that is not rowwise."""
    return dataclasses.replace(p, jac=lambda x, jac=p.jac: jac(x))


def compliant(label):
    """The certified instance of ``gallery.compliant_suite`` with this label:
    (entry, schedule, B0, R)."""
    return next(rest for name, *rest in gallery.compliant_suite() if name == label)


#: Every gallery Jacobian marked rowwise, by kind: (n, rng) -> problem with a
#: known solution. The noisy compliant entry has its own fixed n.
FAMILIES = {
    "affine": lambda n, rng: gallery._affine_problem(
        rng.standard_normal((n, n)), rng.standard_normal(n), "affine"),
    "identity": lambda n, rng: gallery.make_affine(n, "identity").problem,
    "hilbert-matrix": lambda n, rng: gallery.make_affine(n, "hilbert_matrix").problem,
    "rank-deficient": lambda n, rng: gallery.make_affine(n, "rank_deficient").problem,
    "affine-noisy": lambda n, rng: gallery.make_affine(n, "hilbert_matrix", noise=1e-3,
                                                       noise_seed=n).problem,
    "spd": lambda n, rng: gallery._base_instance(n, "spd", rng)[0],
    "quadratic": lambda n, rng: gallery._base_instance(n, "quadratic", rng)[0],
    "autoconv": lambda n, rng: gallery.make_autoconvolution(n).problem,
    "autoconv-noisy": lambda n, rng: gallery.make_autoconvolution(n, noise=1e-3,
                                                                  noise_seed=n).problem,
    "compliant-noisy": lambda n, rng: gallery.get_entry("compliant-quadratic-4", noise=1e-3,
                                                        noise_seed=n).problem,
}


# --- strategies -----------------------------------------------------------

seeds = st.integers(0, 2**32 - 1)


def log_uniform(lo, hi):
    """Floats from 10**lo to 10**hi, uniform in the exponent."""
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@st.composite
def problems(draw, kinds=("affine", "quadratic", "autoconv")):
    """A problem of one of ``kinds`` (keys of FAMILIES) with n in 1..16;
    autoconvolution needs n >= 2."""
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(2 if kind.startswith("autoconv") else 1, 16))
    return FAMILIES[kind](n, np.random.default_rng(draw(seeds)))


schedules = st.builds(PowerSchedule, c0=log_uniform(-2.0, 0.0), c1=st.floats(0.5, 10.0),
                      a=st.floats(0.1, 1.0))


@st.composite
def near(draw, center):
    """center + s u, with s from 1e-3 to 1 and u uniform in [-1, 1]^n."""
    unit = np.random.default_rng(draw(seeds)).uniform(-1.0, 1.0, center.shape)
    return center + draw(log_uniform(-3.0, 0.0)) * unit


@st.composite
def point_stacks(draw, center):
    """A (k, n) stack of points around ``center``, k in 1..64, each row at its
    own scale from 1e-3 to 1e3; now and then a (2, k, n) stack."""
    k = draw(st.integers(1, 64))
    shape = draw(st.sampled_from([(k, center.size), (2, k, center.size)]))
    unit = draw(arrays(np.float64, shape, elements=st.floats(-1.0, 1.0)))
    exponents = draw(arrays(np.float64, shape[:-1] + (1,), elements=st.floats(-3.0, 3.0)))
    return center + unit * 10.0**exponents
