"""Curated test problems with known solutions.

Spans trivially well-posed (identity) through classically ill-conditioned
(Hilbert matrix) to genuinely nonlinear instances: a discretized
autoconvolution equation and a renormalization-type fixed-point
collocation. The nonlinear entries are standard benchmark reconstructions
with stored reference solutions produced offline by a damped Newton
bootstrap; they are analogues, not reproductions of any particular
published experiment.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, replace

import numpy as np

from . import hilbert, theory
from .flow import initial_inverse, solution_gram
from .problem import NonlinearProblem, analytic_bounds, constant_jacobian, rowwise
from .schedule import PowerSchedule

#: Decay constant used for certificate-compliant schedules. The popular
#: eps(t) = eps(0)/(1+t) has b*eps(0) = 1 exactly and can never satisfy
#: the contraction hypothesis, so compliant instances use large c1.
COMPLIANT_B = 0.05

#: ||x0 - xhat|| / eps(0) at the first attempt of a compliant instance.
#: The offset is fixed and eps(0) halves, so the ratio doubles with each
#: halving; the initial-offset check needs it below 1/lambda.
OFFSET_RATIO = 0.01

MAX_HALVINGS = 60

#: The curvature nu of the quadratic compliant kind, F(x) = A d + nu d**2.
QUADRATIC_NU = 0.05


@dataclass
class GalleryEntry:
    """A problem with a known solution, and the start point its runs use."""

    problem: NonlinearProblem
    default_x0: np.ndarray

    @property
    def xhat(self) -> np.ndarray:
        return self.problem.known_solution


def _default_xhat(n: int) -> np.ndarray:
    """Smooth O(1) reference solution: 1 + s on the grid s_i = (i+1)/n."""
    return 1.0 + (np.arange(1, n + 1)) / n


#: The constant Jacobian A of each affine kind, by size n. The Hilbert
#: matrix has the entries 1 / (1 + i + j), i and j from 0.
_AFFINE_MATRICES = {
    "identity": np.eye,
    "hilbert_matrix": lambda n: 1.0 / (1.0 + np.add.outer(np.arange(n), np.arange(n))),
    "rank_deficient": lambda n: np.diag(np.r_[np.ones(n - 1), 0.0]),
}


def _leading_eigenvector(M: np.ndarray) -> np.ndarray:
    """The unit eigenvector of the largest eigenvalue of the symmetric matrix M."""
    return np.linalg.eigh(M)[1][:, -1]


def _affine_problem(A: np.ndarray, xhat: np.ndarray, label: str) -> NonlinearProblem:
    """F(x) = A (x - xhat) with constant Jacobian A, which is
    :func:`~gnflow.problem.rowwise` and marked
    :func:`~gnflow.problem.constant_jacobian`, so its ball bounds are
    exact and drawn from no sample, and its coupled stages read the one
    F' the problem keeps."""

    @rowwise
    @constant_jacobian
    def jac(x, A=A):
        # a copy of A per point; on one vector a plain copy, the cheapest form
        if x.ndim == 1:
            return A.copy()
        return np.broadcast_to(A, x.shape[:-1] + A.shape).copy()

    return NonlinearProblem(
        dim=xhat.size,
        f=lambda x, A=A, c=xhat.copy(): np.dot(A, x - c),
        jac=jac,
        known_solution=xhat,
        label=label,
    )


def make_affine(n: int, kind: str) -> GalleryEntry:
    """F(x) = A (x - xhat) with constant Jacobian A and xhat the default solution.

    Kinds: "identity" (well-posed sanity instance); "hilbert_matrix"
    (A_ij = 1/(i+j-1), the classic ill-conditioned test matrix; the
    default x0 satisfies the source condition); "rank_deficient"
    (diag(1,...,1,0); the default offset lies in the null space of A*A).
    No certificate exists for the rank-deficient kind at any x0: A*A has
    the eigenvalue 0, so by the scope lemma of :mod:`gnflow.theory` its
    radius numerator is negative.
    """
    n = hilbert.count("n", n)
    if kind not in _AFFINE_MATRICES:
        raise ValueError(f"unknown affine kind {kind!r}")
    xhat = _default_xhat(n)
    A = _AFFINE_MATRICES[kind](n)
    if kind == "identity":
        offset = 0.1 * np.ones(n) / np.sqrt(n)
    elif kind == "hilbert_matrix":
        M = A @ A
        offset = -M @ (0.1 * _leading_eigenvector(M))  # in-range offset
    else:
        offset = 0.1 * np.eye(n)[-1]  # null-space direction
    problem = _affine_problem(A, xhat, f"affine-{kind}-{n}")
    return GalleryEntry(problem=problem, default_x0=xhat + offset)


def _lower_toeplitz(v: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The lower-triangular Toeplitz matrix T[i, k] = v[i - k] (k <= i) of each row of v.

    Gathered from the row [0, ..., 0, v] (n - 1 zeros) through ``index``,
    the autoconvolution's Toeplitz index, as a fresh C-contiguous
    ``v.shape + (n,)`` array.
    """
    n = v.shape[-1]
    padded = np.zeros(v.shape[:-1] + (2 * n - 1,))
    padded[..., n - 1:] = v
    return padded.take(index, axis=-1)


def _autoconvolve(x: np.ndarray, ds: float, index: np.ndarray) -> np.ndarray:
    """ds * sum_{k<=i} x[i - k] x[k] for each row of x: ``ds * np.convolve(x, x)[:n]``.

    The product-sum reduces T(x) * x over its contiguous last axis, one
    row at a time, so a row gives the same bits by itself or in a stack
    of any shape. ``np.convolve`` takes one vector only, and a matrix
    product leaves its summation order to the BLAS, which need not sum a
    row alone as it sums the same row in a stack.
    """
    T = _lower_toeplitz(x, index)
    T *= x[..., None, :]
    return ds * np.add.reduce(T, axis=-1)


def make_autoconvolution(n: int) -> GalleryEntry:
    """Discrete autoconvolution F(x)_i = ds * sum_{k=0..i} x_{i-k} x_k - y_i (0-based).

    The first-kind autoconvolution benchmark: F is bilinear, so its
    second derivative is constant.

    Uniform grid s_i = i/n on [0, 1], ds = 1/n; the data y is generated
    from the smooth solution xhat(s) = 1 + s. F is the product-sum
    ``ds * sum_k T(x)[i, k] x_k`` with T(x) the lower-triangular Toeplitz
    matrix of x, and y is computed by the same kernel, so F(xhat) = 0
    exactly. F is :func:`~gnflow.problem.rowwise`: on a stack of points
    each row gets the bits it gets alone, so a finite-difference Jacobian
    takes one F call. The Jacobian is 2*ds*T(x), gathered through the
    same lower-Toeplitz index, built once per problem; it returns a fresh
    C-contiguous matrix with the entries ``scipy.linalg.toeplitz`` gives,
    and is rowwise too: a stack of points gives the stack of matrices.

    Its ball bounds are analytic (:func:`~gnflow.problem.analytic_bounds`):
    F''(x)[h] = 2*ds*T(h) for every x, and ||T(v)|| <= ||v||_1 <= sqrt(n)
    ||v|| (each diagonal of T(v) holds one entry of v), so N2 = 2*ds*sqrt(n)
    and, over U(center, r), N1 = 2*ds*(||center||_1 + sqrt(n)*r).
    """
    n = hilbert.count("n", n)
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    ds = 1.0 / n
    s = np.arange(1, n + 1) * ds
    xhat = 1.0 + s
    # Index n - 1 + i - k picks v_{i-k} for k <= i, and one of the n - 1
    # leading zeros above the diagonal.
    toeplitz_index = (n - 1) + np.arange(n)[:, None] - np.arange(n)
    y = _autoconvolve(xhat, ds, toeplitz_index)

    @rowwise
    def f(x, y=y, ds=ds, index=toeplitz_index):
        return _autoconvolve(x, ds, index) - y

    def bounds(center, radius, ds=ds, root_n=float(np.sqrt(n))):
        return (2.0 * ds * (float(np.linalg.norm(center, 1)) + root_n * radius),
                2.0 * ds * root_n)

    @rowwise
    @analytic_bounds(bounds)
    def jac(x, ds=ds, index=toeplitz_index):
        return _lower_toeplitz(2.0 * ds * x, index)

    problem = NonlinearProblem(
        dim=n,
        f=f,
        jac=jac,
        known_solution=xhat,
        label=f"autoconv-{n}",
    )
    return GalleryEntry(problem=problem, default_x0=np.ones(n))


# --- renormalization fixed-point collocation -------------------------------

_FEIGENBAUM_SIZES = (4, 6, 8)


def _chebyshev_nodes(n: int) -> np.ndarray:
    """n Chebyshev points in (0, 1), descending."""
    k = np.arange(1, n + 1)
    return 0.5 * (1.0 + np.cos((2 * k - 1) * np.pi / (2 * n)))


def _horner_terms(coeffs: np.ndarray) -> tuple[list, list]:
    """The Horner coefficients of g and g' in z = s*s, highest power first,
    as Python floats: ``coeffs[j]`` and ``2(j+1) * coeffs[j]``."""
    cl = coeffs.tolist()
    return cl[::-1], [2.0 * (j + 1) * c for j, c in enumerate(cl)][::-1]


def _poly_values(cs: list, ws, s) -> tuple[list, list]:
    """g(x) = 1 + sum_j coeffs[j] * x^(2(j+1)) and g'(x) at each Python
    float x of ``s``, as two lists of Python floats; ``(cs, ws)`` is
    ``_horner_terms(coeffs)``, and ``ws=None`` computes g alone (g' is
    then an empty list).

    One Horner pass in z = x*x per point: ``a = z*(a + c)`` over ``cs``,
    then g = 1 + a, and ``d = z*d + w`` over ``ws``, then g' = x*d. Each
    step is the correctly rounded multiply and add that the same loop
    over numpy arrays makes (``x ** 2`` is ``x * x``), so the bits are
    those of the array form; at these sizes (6 to 18 points) the per-call
    cost of a ufunc exceeds its arithmetic. Python floats overflow to inf
    and produce NaN without a warning.
    """
    g, gp = [], []
    for x in s:
        z = x * x
        a = 0.0
        for c in cs:
            a = z * (a + c)
        g.append(1.0 + a)
        if ws is not None:
            d = 0.0
            for w in ws:
                d = z * d + w
            gp.append(x * d)
    return g, gp


def _renorm_points(c: np.ndarray, nodes: np.ndarray):
    """Everything F and F' read of c: ``(lam, g_s, uv, g_u, gp_u, gp_v)``.

    lam = -g(1) (the sum of c is ``np.add.reduce``, the reduction
    ``np.sum`` runs, without its wrapper), g_s = g(nodes), v = lam*nodes,
    u = g(v), uv = [u, v] (2n entries), g_u = g(u) and gp_u, gp_v = g'(u),
    g'(v). One :func:`_poly_values` pass per point set: g at the nodes,
    g and g' at v, then g and g' at u, on Python floats; lam*x on Python
    floats has the bits of ``lam * nodes``. The arrays are read-only views
    of one buffer.
    """
    n = len(nodes)
    lam = -(1.0 + np.add.reduce(c))
    cs, ws = _horner_terms(c)
    s = nodes.tolist()
    g_s, _ = _poly_values(cs, None, s)
    lam_f = float(lam)
    v = [lam_f * x for x in s]
    u, gp_v = _poly_values(cs, ws, v)
    g_u, gp_u = _poly_values(cs, ws, u)
    buf = np.array(g_s + u + v + g_u + gp_u + gp_v)
    buf.setflags(write=False)
    return lam, buf[:n], buf[n:3 * n], buf[3 * n:4 * n], buf[4 * n:5 * n], buf[5 * n:]


def _renorm_residual(points) -> np.ndarray:
    """Collocation residual lam*g(s) + g(u) of lam*g(s) + g(g(lam*s)) = 0,
    with lam = -g(1) and u = g(lam*s), read from ``points =
    _renorm_points(c, nodes)``."""
    lam, g_s, _, g_u, _, _ = points
    return lam * g_s + g_u


def _node_powers(nodes: np.ndarray) -> np.ndarray:
    """The read-only n x n matrix whose row j is ``nodes ** (2(j+1))``."""
    P = np.array([nodes ** p for p in range(2, 2 * len(nodes) + 1, 2)])
    P.setflags(write=False)
    return P


def _renorm_jacobian(nodes: np.ndarray, node_powers: np.ndarray, points) -> np.ndarray:
    """Derivative of :func:`_renorm_residual` in c, a C-contiguous n x n matrix.

    Column j, for the power p = 2(j+1), is
    -g(s) + lam*s^p + u^p + g'(u) (v^p - g'(v) s). All columns are built
    at once: ``node_powers`` (:func:`_node_powers`) holds the powers of
    the fixed nodes, and row j of one (n, 2n) buffer receives
    ``[u, v] ** p``, written by ``np.square`` and ``np.power(uv, p,
    out=row)``, the calls ``uv ** p`` makes. The exponent p must stay a
    scalar: numpy's SIMD ``power`` with an array of exponents
    (``uv[:, None] ** P``) does not always round as ``uv ** p`` does, and
    libm's ``pow`` (Python ``**``, ``math.pow``) differs from numpy's in
    the last bit on a few percent of inputs, so the Jacobian would lose
    its bits either way. A point's power does not depend on the length of
    the array it sits in, which lets the node powers be built apart.
    ``points`` is ``_renorm_points(c, nodes)``.
    """
    n = len(nodes)
    lam, g_s, uv, _, gp_u, gp_v = points
    W = np.empty((n, 2 * n))  # row j: uv ** (2(j+1))
    np.square(uv, out=W[0])
    for j in range(1, n):
        np.power(uv, 2 * (j + 1), out=W[j])
    JT = -g_s + lam * node_powers + W[:, :n] + gp_u * (W[:, n:] - gp_v * nodes)
    return np.ascontiguousarray(JT.T)


def _load_reference(name: str) -> np.ndarray:
    text = (
        importlib.resources.files("gnflow")
        .joinpath(f"data/{name}")
        .read_text(encoding="ascii")
    )
    vals = [float(line) for line in text.splitlines() if line.strip() and not line.startswith("#")]
    return np.array(vals)


def make_feigenbaum_like(n: int) -> GalleryEntry:
    """Collocation of the renormalization fixed point lam*g + g(g(lam*s)) = 0.

    An analogue of a renormalization-type functional equation, not a
    reproduction of a published computation.

    The trial function g(s) = 1 + sum_j c_j s^(2j) is an even polynomial
    (g(0) = 1 built in), collocated at n Chebyshev points in (0, 1), with
    lam = -g(1) treated through the coefficients. Reference coefficient
    vectors were computed by the damped Newton bootstrap and are shipped
    as data files (one value per line, 17 significant digits, accurate to
    well below 1e-12 in residual).

    F and F' both start from the renormalization points of c
    (:func:`_renorm_points`: lam, g at the nodes, v = lam * nodes, u =
    g(v), g(u), g'(u) and g'(v)), and the direct flow evaluates both at
    every point it visits. So the two share a cache of one slot: the
    tuple ``(c.tobytes(), points)`` of the last c seen, replaced by a
    single assignment, so that a key is never read with another c's
    points. Filling the slot is one Horner pass per point set, g at the n
    nodes and g with g' at the n points v and the n points u (3n point
    evaluations); F is then ``lam * g_s + g(u)`` and F' reads g'(u) and
    g'(v), so neither runs Horner on a filled slot. The key is the bits
    of c, and the cached arrays are read-only; F and F' return fresh
    arrays. The cache rests on F and F' being pure functions of c: the
    same bits give the same points.

    The powers of the nodes in every Jacobian column are built once per
    problem (:func:`_node_powers`) and kept read-only; each F' call
    computes only the powers of u and v. Powers stay numpy calls with a
    scalar exponent, whose bits differ from libm's ``pow`` and from an
    array exponent's (see :func:`_renorm_jacobian`). g and g' run Horner
    on Python floats with the bits of the array form
    (:func:`_poly_values`).
    """
    n = hilbert.count("n", n)
    if n not in _FEIGENBAUM_SIZES:
        raise ValueError(
            f"no stored reference solution for n={n}; available: {_FEIGENBAUM_SIZES}"
        )
    xhat = _load_reference(f"feigenbaum_n{n}.txt")
    nodes = _chebyshev_nodes(n)
    node_powers = _node_powers(nodes)
    slot = (None, None)  # (c.tobytes(), the points of that c)

    def points(c):
        nonlocal slot
        key = c.tobytes()
        cached_key, cached = slot
        if cached_key != key:
            cached = _renorm_points(c, nodes)
            slot = (key, cached)
        return cached

    def f(c):
        return _renorm_residual(points(np.asarray(c, dtype=float)))

    def jac(c):
        return _renorm_jacobian(nodes, node_powers, points(np.asarray(c, dtype=float)))

    problem = NonlinearProblem(
        dim=n,
        f=f,
        jac=jac,
        known_solution=xhat,
        label=f"feigenbaum-{n}",
    )
    sign = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return GalleryEntry(problem=problem, default_x0=xhat + 0.01 * sign / np.sqrt(n))


# --- certificate-compliant instances ---------------------------------------


def random_spd(n: int, rng) -> np.ndarray:
    """Q diag(d) Q^T: Q from the QR of a Gaussian matrix, d uniform in [0.5, 2]."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q @ np.diag(rng.uniform(0.5, 2.0, size=n)) @ Q.T


def _base_instance(n: int, kind: str, rng) -> tuple[NonlinearProblem, np.ndarray]:
    """Base problem for the compliant constructor plus the unit w direction.

    The Jacobian of every kind is :func:`~gnflow.problem.rowwise`, and no
    kind samples its ball bounds. The affine kinds (spd among them) are
    :func:`~gnflow.problem.constant_jacobian`. The quadratic kind, F(x) =
    A d + nu d**2 with d = x - xhat, has :func:`~gnflow.problem.analytic_bounds`:
    F'(x) = A + 2 nu diag(d) and F''(x)[h, k] = 2 nu (h * k), so N2 = 2 nu
    and, over U(center, r), N1 = ||A|| + 2 nu (||center - xhat|| + r), with
    ||A|| taken once, here, by :func:`~gnflow.hilbert.op_norms`."""
    xhat = _default_xhat(n)
    if kind in ("spd", "quadratic"):
        A = random_spd(n, rng)
    elif kind in _AFFINE_MATRICES:
        A = _AFFINE_MATRICES[kind](n)
    else:
        raise ValueError(f"unknown compliant kind {kind!r}")
    if kind == "quadratic":
        nu = QUADRATIC_NU
        a_norm = float(hilbert.op_norms(A[None])[0])

        def bounds(center, radius, a_norm=a_norm, c=xhat.copy(), nu=nu):
            return (a_norm + 2.0 * nu * (float(np.linalg.norm(center - c)) + radius),
                    2.0 * nu)

        @rowwise
        @analytic_bounds(bounds)
        def jac(x, A=A, c=xhat.copy(), nu=nu):
            # A + 2*nu*diag(x - c) for each row of x: the diagonal is written
            # through a strided view of a zero stack, no slower than np.diag
            D = np.zeros(x.shape + (n,))
            D.reshape(x.shape[:-1] + (n * n,))[..., ::n + 1] = 2.0 * nu * (x - c)
            return A + D

        def f(x, A=A, c=xhat.copy(), nu=nu):
            d = x - c
            return np.dot(A, d) + nu * d ** 2

        problem = NonlinearProblem(
            dim=n,
            f=f,
            jac=jac,
            known_solution=xhat,
            label=f"quadratic-{n}",
        )
    else:
        problem = _affine_problem(A, xhat, f"affine-{kind}-{n}")
    if kind == "hilbert_matrix":
        w_dir = _leading_eigenvector(A @ A)  # keep the offset in the well-resolved range
    else:
        w_dir = rng.standard_normal(n)
    return problem, w_dir / np.linalg.norm(w_dir)


def _halving_search(p: NonlinearProblem, w_dir: np.ndarray, seed: int) -> tuple:
    """Certify ``p`` along the unit direction ``w_dir`` by halving eps(0).

    The start x0 = xhat - M w, with M = F'(xhat)* F'(xhat) and ||M w|| =
    OFFSET_RATIO * 0.1, is built once. From eps(0) = 0.1, every attempt
    that fails, by a raised error or a certificate that does not pass,
    halves eps(0) (through the schedule's c1), at most MAX_HALVINGS
    times. ``seed`` seeds the sampled ball bounds (analytic and exact
    bounds draw none).
    """
    xhat = p.known_solution
    M = solution_gram(p, xhat)
    c0 = 1.0 / COMPLIANT_B
    eps0 = 0.1
    scale = OFFSET_RATIO * eps0 / max(np.linalg.norm(M @ w_dir), np.finfo(float).tiny)
    x0 = xhat - M @ (scale * w_dir)

    for _ in range(MAX_HALVINGS + 1):
        sched = PowerSchedule(c0=c0, c1=c0 / eps0, a=1.0)
        try:
            B0 = initial_inverse(p, x0, eps0)
            cert, _ = theory.certify_with_canonical_R(
                p, xhat, x0, sched, B0, seed=seed
            )
            if cert.overall:
                return GalleryEntry(problem=p, default_x0=x0), sched, B0, cert.R
        except (hilbert.FactorizationError, ValueError):
            pass
        eps0 *= 0.5
    raise ValueError(f"no compliant configuration at this dimension/seed (n={p.dim}, seed={seed})")


def compliant_instance(
    n: int,
    seed: int,
    kind: str = "spd",
) -> tuple[GalleryEntry, PowerSchedule, np.ndarray, float]:
    """Build an instance whose certificate passes: :func:`_halving_search`
    over the problem and unit w direction that ``seed`` draws.

    The rank-deficient kind exhausts the halvings: by the scope lemma of
    :mod:`gnflow.theory`, the radius numerator is at most λmin ||B0|| -
    b(1 + eps0), and λmin = 0 there, so every attempt raises on it
    before any bound is sampled.

    Returns (entry, schedule, B0, R) with B0 the exact initial inverse
    and R the certified (canonically chosen, slightly inflated) radius.
    """
    n = hilbert.count("n", n)
    if n > 16:
        raise ValueError(f"compliant construction is desk-scale only (n <= 16), got {n}")
    p, w_dir = _base_instance(n, kind, np.random.default_rng(seed))
    return _halving_search(p, w_dir, seed)


# --- registry ---------------------------------------------------------------

_COMPLIANT_SPECS = {
    "compliant-affine-2": (2, 2, "identity"),
    "compliant-affine-4": (4, 4, "spd"),
    "compliant-affine-8": (8, 8, "spd"),
    "compliant-quadratic-4": (4, 7, "quadratic"),
}

_cache: dict = {}


def _compliant(label: str) -> tuple:
    """The certified instance behind a compliant label, built once per process."""
    if label not in _cache:
        _cache[label] = compliant_instance(*_COMPLIANT_SPECS[label])
    return _cache[label]


def compliant_suite() -> list:
    """The certified instances used by the verification batteries.

    Returns a list of (label, GalleryEntry, PowerSchedule, B0, R, seed),
    with seed the instance's build seed: R is the radius that
    :func:`~gnflow.theory.certify_with_canonical_R` certified at that
    seed, so certifying the instance again at ``seed`` gives R again, bit
    for bit, and the same sampled bounds.
    """
    return [(label, *_compliant(label), _COMPLIANT_SPECS[label][1])
            for label in _COMPLIANT_SPECS]


#: Builder of each clean entry by label.
_ENTRIES = {
    "identity-8": lambda: make_affine(8, "identity"),
    "hilbert-8": lambda: make_affine(8, "hilbert_matrix"),
    "rank-deficient-8": lambda: make_affine(8, "rank_deficient"),
    "autoconv-16": lambda: make_autoconvolution(16),
    "feigenbaum-6": lambda: make_feigenbaum_like(6),
    **{label: lambda label=label: _compliant(label)[0] for label in _COMPLIANT_SPECS},
}


def available_labels() -> list:
    return list(_ENTRIES)


def _with_data_noise(entry: GalleryEntry, noise: float, noise_seed: int) -> GalleryEntry:
    """The entry with noisy data: F_delta(x) = F(x) - noise * g, g a fixed
    standard normal draw of ``noise_seed``.

    The clean solution stays the known solution, for error reporting, and
    is not checked as a root. The Jacobian is the clean one, with its
    markers (a shift leaves F' as it is), and F keeps the
    :func:`~gnflow.problem.rowwise` marker of the clean F. No noise
    returns the entry itself.
    """
    if noise == 0.0:
        return entry
    clean = entry.problem
    shift = noise * np.random.default_rng(noise_seed).standard_normal(clean.dim)
    clean_f = clean.f

    def f(x):
        return clean_f(x) - shift

    if getattr(clean_f, "rowwise", False):
        rowwise(f)
    noisy = replace(clean, f=f, label=clean.label + "-noisy", validate_solution=False)
    return GalleryEntry(problem=noisy, default_x0=entry.default_x0)


def get_entry(label: str, noise: float = 0.0, noise_seed: int = 0) -> GalleryEntry:
    """Look up a gallery entry by label, optionally with data noise
    (:func:`_with_data_noise`, the same rule for every label).

    Raises:
        ValueError: ``noise`` is negative or not finite.
        KeyError: unknown label.
    """
    hilbert.nonnegative("noise", noise)
    build = _ENTRIES.get(label)
    if build is None:
        raise KeyError(
            f"unknown problem label {label!r}; available: {', '.join(available_labels())}"
        )
    return _with_data_noise(build(), noise, noise_seed)
