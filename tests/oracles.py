"""The slow oracles the tests own, the builders and test doubles the tests
share, and the hypothesis strategies that draw their inputs.

Every fast path of the package is held to one oracle below: the
column-by-column derivative kernels, the per-sample ball bounds, the
scipy Cholesky solve, the step-by-step integration over the checked
stage and the per-step Gronwall norms. Each oracle does the same
arithmetic as its fast path, in the plainest order, so the comparison is
exact: :func:`assert_same_bits` for the arrays of the derivative kernels,
the finite-difference points, the solves, the flow stages and the
integration, which tells -0.0 from 0.0 where ``np.array_equal`` does
not, and ``np.array_equal`` or ``==`` elsewhere.

The module is not named ``reference``: ``bench/run.py`` imports its own
``reference`` module, and one pytest process runs both suites.
"""

import dataclasses
import math

import numpy as np
import scipy.linalg
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gnflow import gallery, hilbert
from gnflow.flow import SolverState, diagnostics
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
    rowwise,
)
from gnflow.schedule import PowerSchedule


def assert_same_bits(got, want):
    """Equal shape, float64 and NaN at the same places; every other entry
    (inf included) with the same bits, so -0.0 differs from 0.0. A NaN's
    payload is not compared."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.dtype == want.dtype == np.float64
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got.view(np.uint64)[~nan], want.view(np.uint64)[~nan])


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


def reference_fd_points(x, h):
    """The 2n points of central differences, one unit step at a time:
    x + h e_j for each j, then x - h e_j for each j."""
    steps = []
    for j in range(len(x)):
        step = np.zeros(len(x))
        step[j] = h
        steps.append(step)
    return np.array([x + step for step in steps] + [x - step for step in steps])


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


def _checked_linearize(p, s, x0, x, t):
    """(eps(t), J = F'(x), the regularized gradient J* F(x) + eps(t)(x - x0)),
    with x0, x, F'(x) and F(x) each checked."""
    x0 = hilbert.as_vector(x0, dim=p.dim)
    eps = s.eps(t)
    x = np.asarray(x, dtype=float)  # the very array jacobian checks
    J = jacobian(p, x)
    grad = J.T @ hilbert.returned("F", p.f(x), (p.dim,)) + eps * (x - x0)
    return eps, J, grad


def checked_direct_rhs(p, s, x0, x, t):
    """``flow.direct_rhs`` with every input and every value of F and F' checked."""
    eps, J, grad = _checked_linearize(p, s, x0, x, t)
    return -hilbert.solve_regularized(J.T @ J, eps, grad)


def checked_coupled_rhs(p, s, x0, x, B, t):
    """``flow.coupled_rhs`` with every input and every value of F and F' checked."""
    if B is None:
        raise ValueError("coupled flow needs the inverse track B")
    B = hilbert.as_operator(B, dim=p.dim)
    eps, J, grad = _checked_linearize(p, s, x0, x, t)
    I = hilbert.identity(len(B))
    return -B @ grad, -((J.T @ J + eps * I) @ B - I)


def reference_integrate(p, s, st0, cfg, xhat=None, R=None):
    """Reference for ``integrate``: a plain loop of the public ``step``
    over the checked right-hand sides above, with a SolverState rebuilt
    for every stage and step, so that every stage point, every value of F
    and F' and x0 and B are checked at every stage. ``integrate`` checks a
    run once and runs the flow's stage kernels on bare arrays; it must
    record these states bit for bit and end with the same tag.

    Returns the recorded (t, x, B) triples and the termination tag.
    """
    x0 = st0.x

    def rhs(t, x, B):
        st = SolverState(t=t, x=x, B=B)
        if st.B is None:
            return checked_direct_rhs(p, s, x0, st.x, st.t), None
        return checked_coupled_rhs(p, s, x0, st.x, st.B, st.t)

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
        assert_same_bits(st.x, x)
        assert (st.B is None) == (B is None)
        if B is not None:
            assert_same_bits(st.B, B)
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
    """q = int gamma, r = int ||G|| exp(q) and V of the Gronwall check at
    every step time k*h, k = 0..n_steps, stepped together: (q, r) as a
    2-vector beside V through one ``advance`` per step, with one op_norm of
    G per stage. Returns q and r of shape (n_steps + 1,) and V of shape
    (n_steps + 1, n, n)."""
    def rhs(t, qr, V):
        A, G = A_path(t), G_path(t)
        return np.array([gamma(t), op_norm(G) * math.exp(qr[0])]), G - A @ V

    qr, V = np.zeros(2), np.asarray(V0, dtype=float)
    qrs, Vs = [qr], [V]
    for k in range(1, int(math.floor(T / h + 1e-9)) + 1):
        qr, V = advance(rhs, qr, V, (k - 1) * h, h, "rk4")
        qrs.append(qr)
        Vs.append(V)
    q, r = np.array(qrs).T
    return q, r, np.array(Vs)


def gronwall_violation(q, r, V):
    """The Gronwall violation of per-step (q, r, V) as ``gronwall_reference``
    returns them, with one op_norm per step, in step order."""
    v0_norm = op_norm(V[0])
    worst = 0.0
    for qk, rk, Vk in zip(q[1:], r[1:], V[1:]):
        worst = max(worst, op_norm(Vk) - math.exp(-qk) * (rk + v0_norm))
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


@dataclasses.dataclass(frozen=True)
class _Frozen:
    """eps(t) == eps0: no decay, so b = 0 and no certificate applies."""

    eps0: float

    def eps(self, t: float) -> float:
        hilbert.nonnegative("t", t)
        return self.eps0

    def b_constant(self) -> float:
        return 0.0


def frozen(eps0: float) -> _Frozen:
    """Constant schedule eps(t) == eps0, for fixed-regularization tests."""
    return _Frozen(float(hilbert.positive("eps0", eps0)))


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
    """The same problem with its Jacobian behind a wrapper that carries no
    marker: not rowwise, and not constant, so ``estimate_bounds`` samples it."""
    return dataclasses.replace(p, jac=lambda x, jac=p.jac: jac(x))


def compliant(label):
    """The certified instance of ``gallery.compliant_suite`` with this label:
    (entry, schedule, B0, R)."""
    return next(tuple(rest) for name, *rest, _ in gallery.compliant_suite() if name == label)


def _orthogonal(n, rng):
    return np.linalg.qr(rng.standard_normal((n, n)))[0]


def _indefinite(n, rng):
    """Q diag(d) Q^T with |d| uniform in [0.5, 2] and alternating signs."""
    Q = _orthogonal(n, rng)
    return Q @ np.diag(rng.uniform(0.5, 2.0, size=n) * np.resize([1.0, -1.0], n)) @ Q.T


#: The linear part A of each family whose spectrum leaves the positive
#: half-line, by name: (n, rng) -> A. The non-normal family is upper
#: triangular with the eigenvalues 1, -1, 1, ... and a standard normal
#: strict upper part.
SPECTRUM_FAMILIES = {
    "indefinite": _indefinite,
    "orthogonal": _orthogonal,
    "negative-definite": lambda n, rng: -gallery.random_spd(n, rng),
    "non-normal": lambda n, rng: (np.diag(np.resize([1.0, -1.0], n))
                                  + np.triu(rng.standard_normal((n, n)), 1)),
}


def spectrum_instance(family, n, seed):
    """F(x) = A (x - xhat) + 0.05 (x - xhat)**2 with A from
    ``SPECTRUM_FAMILIES[family]`` and the gallery's default xhat, and a unit
    w direction, both drawn at ``seed``: the inputs of the gallery's halving
    search. Returns (problem, w_dir)."""
    rng = np.random.default_rng(seed)
    A = SPECTRUM_FAMILIES[family](n, rng)
    xhat, nu = gallery._default_xhat(n), 0.05

    @rowwise
    def jac(x):
        return A + 2.0 * nu * (x - xhat)[..., :, None] * np.eye(n)

    p = NonlinearProblem(dim=n, f=lambda x: A @ (x - xhat) + nu * (x - xhat) ** 2, jac=jac,
                         known_solution=xhat, label=f"{family}-{n}")
    w_dir = rng.standard_normal(n)
    return p, w_dir / np.linalg.norm(w_dir)


#: Every gallery Jacobian marked rowwise, by kind: (n, rng) -> problem with a
#: known solution. The noisy compliant entry has its own fixed n.
FAMILIES = {
    "affine": lambda n, rng: gallery._affine_problem(
        rng.standard_normal((n, n)), rng.standard_normal(n), "affine"),
    "identity": lambda n, rng: gallery.make_affine(n, "identity").problem,
    "hilbert-matrix": lambda n, rng: gallery.make_affine(n, "hilbert_matrix").problem,
    "rank-deficient": lambda n, rng: gallery.make_affine(n, "rank_deficient").problem,
    "affine-noisy": lambda n, rng: gallery._with_data_noise(
        gallery.make_affine(n, "hilbert_matrix"), 1e-3, n).problem,
    "spd": lambda n, rng: gallery._base_instance(n, "spd", rng)[0],
    "quadratic": lambda n, rng: gallery._base_instance(n, "quadratic", rng)[0],
    "autoconv": lambda n, rng: gallery.make_autoconvolution(n).problem,
    "autoconv-noisy": lambda n, rng: gallery._with_data_noise(
        gallery.make_autoconvolution(n), 1e-3, n).problem,
    "compliant-noisy": lambda n, rng: gallery.get_entry("compliant-quadratic-4", noise=1e-3,
                                                        noise_seed=n).problem,
}

#: The families of FAMILIES whose Jacobian the gallery marks constant: every affine one.
CONSTANT_FAMILIES = ("affine", "identity", "hilbert-matrix", "rank-deficient", "affine-noisy",
                     "spd")


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


#: Floats for the derivative kernels: moderate ones, and now and then any
#: finite float, whose square or power may overflow to inf (and an inf
#: times a zero, or inf - inf, is NaN).
kernel_floats = st.floats(-2.0, 2.0) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def renorm_inputs(draw):
    """(c, nodes) of the renormalization collocation with n in 4, 6, 8: c around
    the stored solution at a scale from 1e-4 to 1e2 (from about 10 on, the
    powers of u overflow), or drawn from ``kernel_floats``."""
    n = draw(st.sampled_from(gallery._FEIGENBAUM_SIZES))
    if draw(st.booleans()):
        unit = draw(arrays(np.float64, n, elements=st.floats(-1.0, 1.0)))
        c = gallery.make_feigenbaum_like(n).xhat + draw(log_uniform(-4.0, 2.0)) * unit
    else:
        c = draw(arrays(np.float64, n, elements=kernel_floats))
    return c, gallery._chebyshev_nodes(n)


@st.composite
def point_stacks(draw, center):
    """A (k, n) stack of points around ``center``, k in 1..64, each row at its
    own scale from 1e-3 to 1e3; now and then a (2, k, n) stack."""
    k = draw(st.integers(1, 64))
    shape = draw(st.sampled_from([(k, center.size), (2, k, center.size)]))
    unit = draw(arrays(np.float64, shape, elements=st.floats(-1.0, 1.0)))
    exponents = draw(arrays(np.float64, shape[:-1] + (1,), elements=st.floats(-3.0, 3.0)))
    return center + unit * 10.0**exponents
