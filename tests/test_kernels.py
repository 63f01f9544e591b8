"""The derivative kernels of the direct flow equal their column-by-column
forms bit for bit.

The oracles (``tests/oracles.py``) are the straightforward loops the
kernels replaced: a Horner loop over array accumulators and one Jacobian
column per coefficient for the renormalization collocation,
``scipy.linalg.toeplitz`` for the autoconvolution Jacobian, one pair of F
evaluations per column for central differences, and one Jacobian and one
norm per sample for the ball bounds. Every trajectory of the direct flow
rests on these values, so the comparisons are exact. The derivative
kernels and the finite-difference points are compared through their bits
(``assert_same_bits``), which tells -0.0 from 0.0, over drawn inputs that
include overflowing powers: NaN must appear where the oracle has NaN, and
every other entry, inf included, must have the oracle's bits. The
polynomial kernels run on Python floats and emit no numpy warning.

The renormalization problem's own F and F' share one cache of the points
both start from, so they are held to the same references in interleaved
call orders, and one direct-flow stage must compute those points once.

The autoconvolution F is also checked against itself: on a stack of
points each row must get the bits it gets alone, the ``rowwise``
contract that lets ``fd_jacobian`` evaluate all its points in one call.
Every gallery Jacobian marked ``rowwise`` is held to the same contract,
and the sampled ``estimate_bounds`` must equal its oracle on a marked
Jacobian (without its analytic hook, the :func:`oracles.sampled` twin),
an unmarked one and finite differences.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from oracles import (
    FAMILIES,
    assert_same_bits,
    kernel_floats,
    log_uniform,
    near,
    point_stacks,
    problems,
    reference_autoconv_jacobian,
    reference_bounds,
    reference_fd_jacobian,
    reference_fd_points,
    reference_poly_deriv,
    reference_poly_eval,
    reference_renorm_jacobian,
    reference_renorm_residual,
    renorm_inputs,
    sampled,
    seeds,
    unmarked,
    without_jacobian,
)

from gnflow import gallery
from gnflow.flow import direct_rhs
from gnflow.problem import (
    FD_DEFAULT_STEP,
    NonlinearProblem,
    estimate_bounds,
    fd_jacobian,
    jacobian,
    rowwise,
)
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
    node_powers = gallery._node_powers(nodes)
    for c in feigenbaum_points(n, 1000, seed=n):
        points = gallery._renorm_points(c, nodes)
        assert_same_bits(gallery._renorm_residual(points), reference_renorm_residual(c, nodes))
        assert_same_bits(gallery._renorm_jacobian(nodes, node_powers, points),
                         reference_renorm_jacobian(c, nodes))


@settings(max_examples=300)
@given(inputs=renorm_inputs())
def test_renorm_kernels_keep_the_bits_of_the_column_loop(inputs):
    # with overflowing powers too, under the errstate the integrator sets
    c, nodes = inputs
    with np.errstate(all="ignore"):
        points = gallery._renorm_points(c, nodes)
        assert_same_bits(gallery._renorm_residual(points), reference_renorm_residual(c, nodes))
        assert_same_bits(gallery._renorm_jacobian(nodes, gallery._node_powers(nodes), points),
                         reference_renorm_jacobian(c, nodes))


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
                assert_same_bits(p.f(c), reference_renorm_residual(c, nodes))
            else:
                assert_same_bits(p.jac(c), reference_renorm_jacobian(c, nodes))


def test_feigenbaum_problem_returns_fresh_arrays():
    p = gallery.make_feigenbaum_like(6).problem
    nodes = gallery._chebyshev_nodes(6)
    c = feigenbaum_points(6, 1, seed=7)[0]
    F, J = p.f(c), p.jac(c)
    F[:] = np.nan
    J[:] = np.nan
    assert_same_bits(p.f(c), reference_renorm_residual(c, nodes))
    assert_same_bits(p.jac(c), reference_renorm_jacobian(c, nodes))
    # the cache is keyed by the bits of c, not by the array it came in
    c[0] += 0.01
    assert_same_bits(p.jac(c), reference_renorm_jacobian(c, nodes))
    assert_same_bits(p.f(c), reference_renorm_residual(c, nodes))


def test_direct_stage_computes_feigenbaum_points_once(record_calls):
    entry = gallery.get_entry("feigenbaum-6")
    calls = record_calls(gallery._renorm_points)
    x = entry.default_x0
    direct_rhs(entry.problem, PowerSchedule(c0=0.1, c1=1.0), x, x, 0.0)
    assert len(calls["_renorm_points"]) == 1
    assert np.array_equal(calls["_renorm_points"][0][0], x)


def poly_values(coeffs, s):
    """g and g' of the fused Horner pass at the points of the array ``s``,
    as two arrays of its shape; with them, g alone (``ws=None``)."""
    s = np.asarray(s, dtype=float)
    cs, ws = gallery._horner_terms(coeffs)
    g, gp = gallery._poly_values(cs, ws, s.ravel().tolist())
    g_alone, none = gallery._poly_values(cs, None, s.ravel().tolist())
    assert none == []
    return (np.array(g).reshape(s.shape), np.array(gp).reshape(s.shape),
            np.array(g_alone).reshape(s.shape))


@pytest.mark.parametrize("n", [4, 6, 8])
def test_feigenbaum_polynomials_match_array_horner(n):
    rng = np.random.default_rng(100 + n)
    for c in feigenbaum_points(n, 50, seed=200 + n):
        s = rng.uniform(-1.5, 1.5, size=2 * n)
        g, gp, g_alone = poly_values(c, s)
        assert_same_bits(g, reference_poly_eval(c, s))
        assert_same_bits(gp, reference_poly_deriv(c, s))
        assert_same_bits(g_alone, g)


@settings(max_examples=300)
@given(coeffs=arrays(np.float64, st.integers(1, 8), elements=kernel_floats),
       s=arrays(np.float64, array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=18),
                elements=kernel_floats))
def test_poly_kernels_keep_the_bits_of_array_horner(coeffs, s):
    # the array oracle may warn of overflow; the Python-float kernel may not
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")
        g, gp, g_alone = poly_values(coeffs, s)
    with np.errstate(all="ignore"):
        want_g, want_gp = reference_poly_eval(coeffs, s), reference_poly_deriv(coeffs, s)
    assert_same_bits(g, want_g)
    assert_same_bits(gp, want_gp)
    assert_same_bits(g_alone, want_g)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_f_after_jacobian_runs_no_horner_pass(n, record_calls):
    # F' fills the slot with g(u) as well, so F at the same c only reads it
    p = gallery.make_feigenbaum_like(n).problem
    nodes = gallery._chebyshev_nodes(n)
    cs = feigenbaum_points(n, 5, seed=400 + n)
    calls = record_calls(gallery._poly_values)
    for c in cs:
        p.jac(c)
        passes = len(calls["_poly_values"])
        assert_same_bits(p.f(c), reference_renorm_residual(c, nodes))
        assert len(calls["_poly_values"]) == passes
    assert len(calls["_poly_values"]) == 3 * 5


@pytest.mark.parametrize("n", [2, 6, 16])
def test_autoconvolution_jacobian_matches_toeplitz(n):
    rng = np.random.default_rng(n)
    for noise in (0.0, 1e-3):
        p = gallery._with_data_noise(gallery.make_autoconvolution(n), noise, n).problem
        for _ in range(200):
            x = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0)
            assert_same_bits(p.jac(x), reference_autoconv_jacobian(x, n))


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
    assert_same_bits(fd_jacobian(p, x, h=h), reference_fd_jacobian(p, x, h=h))


@settings(max_examples=200)
@given(x=arrays(np.float64, st.integers(1, 16),
                elements=st.sampled_from([0.0, -0.0]) | kernel_floats),
       h=st.sampled_from([FD_DEFAULT_STEP, 1e-3, 0.1]) | log_uniform(-8.0, 2.0),
       h_type=st.sampled_from([float, np.float64, np.array]))
def test_fd_points_keep_the_bits_of_unit_steps(x, h, h_type):
    # the points F sees are x + h e_j and x - h e_j, signed zeros included,
    # whatever real scalar type h comes in
    seen = []

    @rowwise
    def f(points):
        seen.append(points.copy())
        return np.zeros_like(points)

    fd_jacobian(NonlinearProblem(dim=x.size, f=f), x, h=h_type(h))
    assert len(seen) == 1
    assert_same_bits(seen[0], reference_fd_points(x, h))


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
    # marked Jacobian equals the per-sample loop field by field; the twin
    # drops an analytic hook, which would answer before any sample
    p = sampled(FAMILIES[kind](6, np.random.default_rng(6)))
    assert p.jac.rowwise
    center = p.known_solution
    stacked = estimate_bounds(p, center, radius, samples=samples, seed=seed)
    oracle = reference_bounds(p, center, radius, samples, seed)
    for field in dataclasses.fields(stacked):
        a, b = getattr(stacked, field.name), getattr(oracle, field.name)
        assert type(a) is type(b), field.name
        assert np.array_equal(a, b), field.name


#: The three ways estimate_bounds samples a Jacobian: a rowwise one on stacks
#: (the twin without an analytic hook), any other one point by point, and none
#: (finite differences).
BOUNDS_PATHS = {"marked": sampled, "unmarked": unmarked, "fd": without_jacobian}


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
