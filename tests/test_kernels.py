"""The derivative kernels of the direct flow equal their column-by-column
forms bit for bit.

The references below are the straightforward loops the kernels replaced:
a Horner loop over array accumulators and one Jacobian column per
coefficient for the renormalization collocation, ``scipy.linalg.toeplitz``
for the autoconvolution Jacobian, and one pair of F evaluations per
column for central differences. Every trajectory of the direct flow rests
on these values, so the comparisons are exact (``np.array_equal``).

The renormalization problem's own F and F' share one cache of the points
both start from, so they are held to the same references in interleaved
call orders, and one direct-flow stage must compute those points once.

The autoconvolution F is also checked against itself: on a stack of
points each row must get the bits it gets alone, the ``rowwise``
contract that lets ``fd_jacobian`` evaluate all its points in one call.
Every gallery Jacobian marked ``rowwise`` is held to the same contract,
and ``estimate_bounds`` on a marked Jacobian, which calls it twice on
stacks, must equal its per-sample loop, which stays as the path of an
unmarked Jacobian and serves as the oracle.
"""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gnflow import gallery
from gnflow.flow import direct_rhs
from gnflow.problem import (
    FD_DEFAULT_STEP,
    NonlinearProblem,
    estimate_bounds,
    fd_jacobian,
    jacobian,
)
from gnflow.schedule import PowerSchedule


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


def feigenbaum_points(n, count, seed):
    """Coefficient vectors around the stored solution, at scales from 1e-4 to 1."""
    xhat = gallery.make_feigenbaum_like(n).xhat
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-4.0, 0.0, size=count)
    return xhat + scales[:, None] * rng.standard_normal((count, n))


def fd_free(p):
    """The same F with no analytic Jacobian."""
    return NonlinearProblem(dim=p.dim, f=p.f, label=p.label + "-fd", validate_solution=False)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_feigenbaum_kernels_match_column_loop(n):
    nodes = gallery._chebyshev_nodes(n)
    for c in feigenbaum_points(n, 1000, seed=n):
        assert np.array_equal(gallery._renorm_residual(c, nodes),
                              reference_renorm_residual(c, nodes)), c
        assert np.array_equal(gallery._renorm_jacobian(c, nodes),
                              reference_renorm_jacobian(c, nodes)), c


@pytest.mark.parametrize("n", [4, 6, 8])
def test_feigenbaum_problem_matches_column_loop_in_any_order(n):
    # F and F' share the points of the last c; each call must still get the
    # points of its own c, whichever of the two asked last
    p = gallery.make_feigenbaum_like(n).problem
    nodes = gallery._chebyshev_nodes(n)
    cs = feigenbaum_points(n, 400, seed=300 + n)
    for c1, c2 in zip(cs[::2], cs[1::2]):
        for which, c in (("J", c1), ("F", c2), ("F", c1), ("J", c2), ("J", c2), ("F", c2)):
            if which == "F":
                assert np.array_equal(p.f(c), reference_renorm_residual(c, nodes)), c
            else:
                assert np.array_equal(p.jac(c), reference_renorm_jacobian(c, nodes)), c


def test_feigenbaum_problem_returns_fresh_arrays():
    p = gallery.make_feigenbaum_like(6).problem
    nodes = gallery._chebyshev_nodes(6)
    c = feigenbaum_points(6, 1, seed=7)[0]
    F, J = p.f(c), p.jac(c)
    F[:] = np.nan
    J[:] = np.nan
    assert np.array_equal(p.f(c), reference_renorm_residual(c, nodes))
    assert np.array_equal(p.jac(c), reference_renorm_jacobian(c, nodes))
    # the cache is keyed by the bits of c, not by the array it came in
    c[0] += 0.01
    assert np.array_equal(p.jac(c), reference_renorm_jacobian(c, nodes))
    assert np.array_equal(p.f(c), reference_renorm_residual(c, nodes))


def test_direct_stage_computes_feigenbaum_points_once(monkeypatch):
    calls = []
    points = gallery._renorm_points
    monkeypatch.setattr(gallery, "_renorm_points",
                        lambda c, nodes: calls.append(c.copy()) or points(c, nodes))
    entry = gallery.get_entry("feigenbaum-6")
    calls.clear()  # the construction's check of F(xhat)
    x = entry.default_x0
    direct_rhs(entry.problem, PowerSchedule(c0=0.1, c1=1.0), x, x, 0.0)
    assert len(calls) == 1
    assert np.array_equal(calls[0], x)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_feigenbaum_polynomials_match_array_horner(n):
    rng = np.random.default_rng(100 + n)
    for c in feigenbaum_points(n, 50, seed=200 + n):
        s = rng.uniform(-1.5, 1.5, size=2 * n)
        assert np.array_equal(gallery._poly_eval(c, s), reference_poly_eval(c, s))
        assert np.array_equal(gallery._poly_deriv(c, s), reference_poly_deriv(c, s))


@pytest.mark.parametrize("n", [2, 6, 16])
def test_autoconvolution_jacobian_matches_toeplitz(n):
    rng = np.random.default_rng(n)
    for noise in (0.0, 1e-3):
        p = gallery.make_autoconvolution(n, noise=noise, noise_seed=n).problem
        for _ in range(200):
            x = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0)
            assert np.array_equal(p.jac(x), reference_autoconv_jacobian(x, n))


@st.composite
def autoconv_stacks(draw):
    """An autoconvolution F and a stack of points: rows at scales 1e-3..1e3,
    as one row, the 2n rows of a finite-difference Jacobian, or a 3-D stack."""
    n = draw(st.sampled_from([2, 3, 7, 16]))
    noise = draw(st.sampled_from([0.0, 1e-3]))
    shape = draw(st.sampled_from([(1, n), (2 * n, n), (2, 3, n)]))
    unit = draw(arrays(np.float64, shape, elements=st.floats(-1.0, 1.0)))
    exponents = draw(arrays(np.float64, shape[:-1] + (1,), elements=st.floats(-3.0, 3.0)))
    f = gallery.make_autoconvolution(n, noise=noise, noise_seed=n).problem.f
    return f, unit * 10.0**exponents


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(autoconv_stacks())
def test_autoconvolution_f_is_rowwise(case):
    # the contract fd_jacobian relies on: each row of a stack gets the bits
    # it gets alone
    f, stack = case
    assert f.rowwise
    rows = stack.reshape(-1, stack.shape[-1])
    one_by_one = np.array([f(row) for row in rows]).reshape(stack.shape)
    assert np.array_equal(f(stack), one_by_one)


def _random_affine(seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((7, 7))
    c = rng.standard_normal(7)
    return NonlinearProblem(dim=7, f=lambda x: A @ (x - c), label="affine-random")


@pytest.mark.parametrize("make", [
    lambda: fd_free(gallery.get_entry("autoconv-16", noise=1e-3, noise_seed=5).problem),
    lambda: fd_free(gallery.get_entry("feigenbaum-6").problem),
    lambda: _random_affine(11),
], ids=["autoconv-16", "feigenbaum-6", "affine-random"])
def test_fd_jacobian_matches_column_loop(make):
    p = make()
    rng = np.random.default_rng(p.dim)
    base = np.ones(p.dim) if p.known_solution is None else p.known_solution
    for h in (FD_DEFAULT_STEP, 1e-3, 0.1):
        for _ in range(30):
            x = base + 0.05 * rng.standard_normal(p.dim)
            assert np.array_equal(fd_jacobian(p, x, h=h), reference_fd_jacobian(p, x, h=h))


@pytest.mark.parametrize("label", gallery.available_labels())
def test_jacobians_are_c_contiguous_float64(label):
    # J.T @ J rounds differently on an F-ordered J, so a layout change in
    # a kernel would change every trajectory that uses it
    entry = gallery.get_entry(label)
    x = entry.default_x0
    for J in (jacobian(entry.problem, x), fd_jacobian(fd_free(entry.problem), x)):
        assert J.dtype == np.float64, label
        assert J.flags.c_contiguous, label


def _base_problem(kind):
    return lambda n: gallery._base_instance(n, kind, np.random.default_rng(n))[0]


#: Every gallery Jacobian marked rowwise, by kind: a function n -> problem
#: (the noisy compliant entry has its own fixed n).
ROWWISE_JACOBIANS = {
    "identity": lambda n: gallery.make_affine(n, "identity").problem,
    "hilbert-matrix": lambda n: gallery.make_affine(n, "hilbert_matrix").problem,
    "rank-deficient": lambda n: gallery.make_affine(n, "rank_deficient").problem,
    "affine-noisy": lambda n: gallery.make_affine(n, "hilbert_matrix", noise=1e-3,
                                                  noise_seed=n).problem,
    "spd": _base_problem("spd"),
    "quadratic": _base_problem("quadratic"),
    "autoconv": lambda n: gallery.make_autoconvolution(max(n, 2)).problem,
    "autoconv-noisy": lambda n: gallery.make_autoconvolution(max(n, 2), noise=1e-3,
                                                             noise_seed=n).problem,
    "compliant-noisy": lambda n: gallery.get_entry("compliant-quadratic-4", noise=1e-3,
                                                   noise_seed=n).problem,
}


@pytest.mark.parametrize("label", gallery.available_labels())
def test_every_gallery_jacobian_but_feigenbaum_is_rowwise(label):
    jac = gallery.get_entry(label).problem.jac
    assert getattr(jac, "rowwise", False) == (label != "feigenbaum-6")


@st.composite
def jacobian_stacks(draw, build):
    """A problem of size 1..16 and a (k, n) stack of points, k in 1..64, with
    rows around its solution at scales 1e-3..1e3; now and then a 3-D stack."""
    p = build(draw(st.integers(1, 16)))
    k = draw(st.integers(1, 64))
    shape = draw(st.sampled_from([(k, p.dim), (2, k, p.dim)]))
    unit = draw(arrays(np.float64, shape, elements=st.floats(-1.0, 1.0)))
    exponents = draw(arrays(np.float64, shape[:-1] + (1,), elements=st.floats(-3.0, 3.0)))
    return p.jac, p.known_solution + unit * 10.0**exponents


@pytest.mark.parametrize("kind", ROWWISE_JACOBIANS)
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(data=st.data())
def test_rowwise_jacobian_matches_each_row_alone(kind, data):
    jac, stack = data.draw(jacobian_stacks(ROWWISE_JACOBIANS[kind]))
    n = stack.shape[-1]
    J = jac(stack)
    assert J.shape == stack.shape + (n,)
    assert J.dtype == np.float64
    assert J.flags.c_contiguous
    for index in np.ndindex(stack.shape[:-1]):
        assert np.array_equal(J[index], jac(stack[index]))


def unmarked(p):
    """The same problem with its Jacobian behind a wrapper that is not rowwise."""
    return dataclasses.replace(p, jac=lambda x, jac=p.jac: jac(x))


@pytest.mark.parametrize("radius, samples, seed", [(0.05, 1, 0), (0.5, 7, 3), (2.0, 64, 11)])
@pytest.mark.parametrize("kind", ROWWISE_JACOBIANS)
def test_stacked_bounds_match_per_sample_loop(kind, radius, samples, seed):
    p = ROWWISE_JACOBIANS[kind](6)
    loop = unmarked(p)
    assert p.jac.rowwise and not hasattr(loop.jac, "rowwise")
    center = p.known_solution
    stacked = estimate_bounds(p, center, radius, samples=samples, seed=seed)
    oracle = estimate_bounds(loop, center, radius, samples=samples, seed=seed)
    for field in dataclasses.fields(stacked):
        a, b = getattr(stacked, field.name), getattr(oracle, field.name)
        assert type(a) is type(b), field.name
        assert np.array_equal(a, b), field.name
