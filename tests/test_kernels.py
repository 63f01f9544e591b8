"""The derivative kernels of the direct flow equal their column-by-column
forms bit for bit.

The oracles (``tests/oracles.py``) are the straightforward loops the
kernels replaced: a Horner loop over array accumulators and one Jacobian
column per coefficient for the renormalization collocation,
``scipy.linalg.toeplitz`` for the autoconvolution Jacobian, one pair of F
evaluations per column for central differences, and one Jacobian and one
norm per sample for the ball bounds. Every trajectory of the direct flow
rests on these values, so the comparisons are exact (``np.array_equal``).

The renormalization problem's own F and F' share one cache of the points
both start from, so they are held to the same references in interleaved
call orders, and one direct-flow stage must compute those points once.

The autoconvolution F is also checked against itself: on a stack of
points each row must get the bits it gets alone, the ``rowwise``
contract that lets ``fd_jacobian`` evaluate all its points in one call.
Every gallery Jacobian marked ``rowwise`` is held to the same contract,
and ``estimate_bounds`` must equal its oracle on a marked Jacobian, an
unmarked one and finite differences.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    FAMILIES,
    log_uniform,
    near,
    point_stacks,
    problems,
    reference_autoconv_jacobian,
    reference_bounds,
    reference_fd_jacobian,
    reference_poly_deriv,
    reference_poly_eval,
    reference_renorm_jacobian,
    reference_renorm_residual,
    seeds,
    unmarked,
    without_jacobian,
)

from gnflow import gallery
from gnflow.flow import direct_rhs
from gnflow.problem import FD_DEFAULT_STEP, estimate_bounds, fd_jacobian, jacobian
from gnflow.schedule import PowerSchedule


def feigenbaum_points(n, count, seed):
    """Coefficient vectors around the stored solution, at scales from 1e-4 to 1."""
    xhat = gallery.make_feigenbaum_like(n).xhat
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-4.0, 0.0, size=count)
    return xhat + scales[:, None] * rng.standard_normal((count, n))


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


def test_direct_stage_computes_feigenbaum_points_once(record_calls):
    entry = gallery.get_entry("feigenbaum-6")
    calls = record_calls(gallery._renorm_points)
    x = entry.default_x0
    direct_rhs(entry.problem, PowerSchedule(c0=0.1, c1=1.0), x, x, 0.0)
    assert len(calls["_renorm_points"]) == 1
    assert np.array_equal(calls["_renorm_points"][0][0], x)


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


@settings(max_examples=100)
@given(data=st.data())
def test_autoconvolution_f_is_rowwise(data):
    # the contract fd_jacobian relies on: each row of a stack gets the bits
    # it gets alone
    p = data.draw(problems(kinds=("autoconv", "autoconv-noisy")))
    stack = data.draw(point_stacks(p.known_solution))
    assert p.f.rowwise
    rows = stack.reshape(-1, stack.shape[-1])
    one_by_one = np.array([p.f(row) for row in rows]).reshape(stack.shape)
    assert np.array_equal(p.f(stack), one_by_one)


#: The problems whose finite-difference Jacobian is checked, by id.
FD_CASES = {
    "autoconv-16": st.builds(lambda: gallery.get_entry("autoconv-16", noise=1e-3,
                                                       noise_seed=5).problem),
    "feigenbaum-6": st.builds(lambda: gallery.get_entry("feigenbaum-6").problem),
    "affine-random": problems(kinds=("affine",)),
}


@pytest.mark.parametrize("case", FD_CASES)
@settings(max_examples=30)
@given(data=st.data())
def test_fd_jacobian_matches_column_loop(case, data):
    p = without_jacobian(data.draw(FD_CASES[case]))
    x = data.draw(near(p.known_solution))
    h = data.draw(st.sampled_from([FD_DEFAULT_STEP, 1e-3, 0.1]) | log_uniform(-8.0, -1.0))
    assert np.array_equal(fd_jacobian(p, x, h=h), reference_fd_jacobian(p, x, h=h))


@pytest.mark.parametrize("label", gallery.available_labels())
def test_jacobians_are_c_contiguous_float64(label):
    # J.T @ J rounds differently on an F-ordered J, so a layout change in
    # a kernel would change every trajectory that uses it
    entry = gallery.get_entry(label)
    x = entry.default_x0
    for J in (jacobian(entry.problem, x), fd_jacobian(without_jacobian(entry.problem), x)):
        assert J.dtype == np.float64, label
        assert J.flags.c_contiguous, label


@pytest.mark.parametrize("label", gallery.available_labels())
def test_every_gallery_jacobian_but_feigenbaum_is_rowwise(label):
    jac = gallery.get_entry(label).problem.jac
    assert getattr(jac, "rowwise", False) == (label != "feigenbaum-6")


@pytest.mark.parametrize("kind", FAMILIES)
@settings(max_examples=40)
@given(data=st.data())
def test_rowwise_jacobian_matches_each_row_alone(kind, data):
    p = data.draw(problems(kinds=(kind,)))
    stack = data.draw(point_stacks(p.known_solution))
    n = stack.shape[-1]
    J = p.jac(stack)
    assert J.shape == stack.shape + (n,)
    assert J.dtype == np.float64
    assert J.flags.c_contiguous
    for index in np.ndindex(stack.shape[:-1]):
        assert np.array_equal(J[index], p.jac(stack[index]))


#: The gallery families whose Jacobian is marked rowwise.
ROWWISE_KINDS = [kind for kind in FAMILIES if kind != "affine"]


@pytest.mark.parametrize("radius, samples, seed", [(0.05, 1, 0), (0.5, 7, 3), (2.0, 64, 11)])
@pytest.mark.parametrize("kind", ROWWISE_KINDS)
def test_stacked_bounds_match_per_sample_loop(kind, radius, samples, seed):
    # fixed cases at n = 6 around the solution: the stacked path of a
    # marked Jacobian equals the per-sample loop field by field
    p = FAMILIES[kind](6, np.random.default_rng(6))
    assert p.jac.rowwise
    center = p.known_solution
    stacked = estimate_bounds(p, center, radius, samples=samples, seed=seed)
    oracle = reference_bounds(p, center, radius, samples, seed)
    for field in dataclasses.fields(stacked):
        a, b = getattr(stacked, field.name), getattr(oracle, field.name)
        assert type(a) is type(b), field.name
        assert np.array_equal(a, b), field.name


#: The three ways estimate_bounds takes a Jacobian: a rowwise one on stacks,
#: any other one point by point, and none (finite differences).
BOUNDS_PATHS = {"marked": lambda p: p, "unmarked": unmarked, "fd": without_jacobian}


@pytest.mark.parametrize("path", BOUNDS_PATHS)
@pytest.mark.parametrize("kind", FAMILIES)
@settings(max_examples=3)
@given(radius=log_uniform(-2.0, 0.5), samples=st.integers(1, 64), seed=seeds, data=st.data())
def test_estimate_bounds_matches_reference(kind, path, radius, samples, seed, data):
    p = BOUNDS_PATHS[path](data.draw(problems(kinds=(kind,))))
    assert getattr(p.jac, "rowwise", False) == (path == "marked")
    center = data.draw(near(p.known_solution))
    bounds = estimate_bounds(p, center, radius, samples=samples, seed=seed)
    oracle = reference_bounds(p, center, radius, samples, seed)
    for field in dataclasses.fields(bounds):
        a, b = getattr(bounds, field.name), getattr(oracle, field.name)
        assert type(a) is type(b), field.name
        assert np.array_equal(a, b), field.name
