import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    ANALYTIC_FAMILIES,
    CONSTANT_FAMILIES,
    FAMILIES,
    affine_problem,
    assert_same_bits,
    identity_problem,
    log_uniform,
    near,
    problems,
    reference_bounds,
    sampled,
    seeds,
    unmarked,
    without_jacobian,
)

from gnflow import gallery, problem
from gnflow.problem import (
    BOUND_INFLATION,
    BallBounds,
    NonlinearProblem,
    _ball_points,
    analytic_bounds,
    estimate_bounds,
    eval_F,
    fd_jacobian,
    jacobian,
    rowwise,
)

XHAT = np.array([1.0, -0.5, 2.0])


class TestEvalF:
    def test_affine_root(self):
        p, xhat = identity_problem(xhat=XHAT)
        assert np.allclose(eval_F(p, xhat), 0.0)

    def test_identity_offset(self):
        p, xhat = identity_problem(xhat=XHAT)
        e1 = np.array([1.0, 0.0, 0.0])
        assert np.allclose(eval_F(p, xhat + e1), e1)

    def test_autoconvolution_quadrature_oracle(self):
        # independent double-loop quadrature of the same grid rule
        entry = gallery.make_autoconvolution(12)
        rng = np.random.default_rng(0)
        x = 1.0 + 0.3 * rng.standard_normal(12)
        n, ds = 12, 1.0 / 12
        s = np.arange(1, n + 1) * ds
        y = np.zeros(n)
        for i in range(n):
            for j in range(i + 1):
                y[i] += ds * (1 + s[j]) * (1 + s[i - j])
        oracle = np.zeros(n)
        for i in range(n):
            acc = 0.0
            for j in range(i + 1):
                acc += ds * x[j] * x[i - j]
            oracle[i] = acc - y[i]
        assert np.allclose(eval_F(entry.problem, x), oracle, atol=1e-10)

    def test_non_finite_output_named(self):
        p = NonlinearProblem(dim=2, f=lambda x: np.array([x[0], x[1] / 0.0 if x[1] else np.nan]))
        with pytest.raises(ValueError, match=r"^F returned a non-finite entry at index \(1,\)$"):
            eval_F(p, np.array([1.0, 0.0]))

    def test_dimension_checked(self):
        p, _ = identity_problem(xhat=XHAT)
        with pytest.raises(ValueError):
            eval_F(p, np.ones(4))


class TestJacobian:
    def test_affine_constant_derivative(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((4, 4))
        xhat = rng.standard_normal(4)
        p = affine_problem(A, xhat)
        for _ in range(3):
            x = rng.standard_normal(4)
            assert np.allclose(jacobian(p, x), A, atol=1e-14)

    def test_identity_problem(self):
        p, xhat = identity_problem(xhat=XHAT)
        assert np.allclose(jacobian(p, xhat), np.eye(3))

    def test_gallery_analytic_matches_fd(self):
        for label in ("identity-8", "hilbert-8", "autoconv-16", "feigenbaum-6"):
            entry = gallery.get_entry(label)
            x = entry.default_x0
            J = jacobian(entry.problem, x)
            J_fd = fd_jacobian(entry.problem, x, h=1e-5)
            scale = 1.0 + np.max(np.abs(J))
            assert np.max(np.abs(J - J_fd)) <= 1e-6 * scale, label

    def test_fallback_when_jac_absent(self):
        p = NonlinearProblem(dim=2, f=lambda x: x**2)
        x = np.array([1.0, 2.0])
        assert np.allclose(jacobian(p, x), np.diag([2.0, 4.0]), atol=1e-8)


class TestFdJacobian:
    def test_exact_for_affine(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((3, 3))
        p = affine_problem(A, np.zeros(3))
        J = fd_jacobian(p, rng.standard_normal(3), h=0.01)
        assert np.max(np.abs(J - A)) <= 1e-12

    def test_quadratic_scalar(self):
        p = NonlinearProblem(dim=1, f=lambda x: x**2)
        J = fd_jacobian(p, np.array([3.0]), h=1e-4)
        assert J[0, 0] == pytest.approx(6.0, abs=1e-7)

    def test_richardson_ratio(self):
        # central differences are second order: halving h shrinks the
        # truncation error by about four on a smooth non-quadratic map
        entry = gallery.get_entry("feigenbaum-6")
        p = entry.problem
        x = entry.xhat
        J_true = jacobian(p, x)
        err = lambda h: np.max(np.abs(fd_jacobian(p, x, h=h) - J_true))
        ratio = err(1e-3) / err(5e-4)
        assert 3.3 <= ratio <= 4.7

    def test_bad_step_rejected(self):
        p = NonlinearProblem(dim=1, f=lambda x: x)
        with pytest.raises(ValueError):
            fd_jacobian(p, np.array([1.0]), h=0.0)

    @pytest.mark.parametrize("h", [np.inf, np.nan, -1e-6])
    def test_non_finite_step_rejected(self, h):
        # an infinite step used to surface only as non-finite entries
        p = NonlinearProblem(dim=2, f=lambda x: x)
        with pytest.raises(ValueError, match="must be positive and finite"):
            fd_jacobian(p, np.ones(2), h=h)

    def test_non_finite_evaluation_rejected(self):
        # F is infinite on one side of x only; its column turns non-finite
        p = NonlinearProblem(dim=2, f=lambda x: np.where(x > 1.0, np.inf, x))
        with pytest.raises(ValueError, match="non-finite"):
            fd_jacobian(p, np.array([0.5, 1.0]), h=1e-3)

    def test_wrong_shape_evaluation_rejected(self):
        # a scalar F would broadcast into every column unnoticed
        p = NonlinearProblem(dim=2, f=lambda x: float(x @ x))
        with pytest.raises(ValueError, match="F returned shape"):
            fd_jacobian(p, np.ones(2))

    def test_ragged_evaluations_rejected(self):
        # length n at some points and n + 1 at others cannot be stacked;
        # the error names the offending shape, not numpy's stacking failure
        p = NonlinearProblem(dim=2, f=lambda x: x if x[0] > 1.0 else np.append(x, 0.0))
        with pytest.raises(ValueError, match=r"^F returned shape \(3,\) at x \+ h\*e_1, "
                                             r"expected \(2,\)$"):
            fd_jacobian(p, np.ones(2), h=1e-3)


def counted(fn):
    """``fn`` behind a wrapper that records the shape of each argument."""
    calls = []

    def wrapper(x):
        calls.append(np.shape(x))
        return fn(x)

    return wrapper, calls


class TestRowwiseFdJacobian:
    """A :func:`rowwise` F is called once on the stacked points, any other F
    once per point; the bits are gated by ``tests/test_kernels.py``."""

    def test_one_call_for_rowwise_f(self):
        f, calls = counted(lambda x: x**2)
        p = NonlinearProblem(dim=3, f=rowwise(f))
        J = fd_jacobian(p, np.array([1.0, 2.0, 3.0]), h=1e-3)
        assert calls == [(6, 3)]
        assert np.allclose(J, np.diag([2.0, 4.0, 6.0]), atol=1e-9)

    def test_one_call_per_point_for_plain_f(self):
        f, calls = counted(lambda x: x**2)
        p = NonlinearProblem(dim=3, f=f)
        fd_jacobian(p, np.array([1.0, 2.0, 3.0]), h=1e-3)
        assert calls == [(3,)] * 6

    def test_marker_follows_the_callable(self):
        # a problem rebuilt from the same f keeps the one-call path
        f, calls = counted(lambda x: 2.0 * x)
        entry = NonlinearProblem(dim=2, f=rowwise(f), jac=lambda x: 2.0 * np.eye(2))
        rebuilt = NonlinearProblem(dim=2, f=entry.f)
        fd_jacobian(rebuilt, np.ones(2))
        assert calls == [(4, 2)]

    @pytest.mark.parametrize("f", [
        lambda x: x[0],             # one row: the stack was not mapped row by row
        lambda x: x.sum(axis=-1),   # one value per row
        lambda x: np.append(x, 0.0),
    ], ids=["first-row", "row-sums", "flattened"])
    def test_wrong_stacked_shape_rejected(self, f):
        p = NonlinearProblem(dim=2, f=rowwise(f))
        with pytest.raises(ValueError, match=r"^F returned shape .*, expected \(4, 2\)$"):
            fd_jacobian(p, np.ones(2))

    def test_non_finite_evaluation_rejected(self):
        p = NonlinearProblem(dim=2, f=rowwise(lambda x: np.where(x > 1.0, np.inf, x)))
        with pytest.raises(ValueError, match="non-finite"):
            fd_jacobian(p, np.array([0.5, 1.0]), h=1e-3)


class TestRowwiseEstimateBounds:
    """A :func:`rowwise` Jacobian is called twice per estimate, on the stacked
    sample and shifted points, any other once per point; the bits are gated
    by ``tests/test_kernels.py``."""

    @pytest.mark.parametrize("samples", [1, 5, 64])
    def test_two_calls_for_rowwise_jac(self, samples):
        jac, calls = counted(gallery.make_autoconvolution(4).problem.jac)
        p = NonlinearProblem(dim=4, f=lambda x: x, jac=rowwise(jac))
        estimate_bounds(p, np.ones(4), 0.5, samples=samples, seed=2)
        assert calls == [(samples, 4)] * 2

    @pytest.mark.parametrize("samples", [1, 5, 64])
    def test_two_calls_per_sample_for_plain_jac(self, samples):
        jac, calls = counted(gallery.make_autoconvolution(4).problem.jac)
        p = NonlinearProblem(dim=4, f=lambda x: x, jac=jac)
        estimate_bounds(p, np.ones(4), 0.5, samples=samples, seed=2)
        assert calls == [(4,)] * (2 * samples)

    @pytest.mark.parametrize("jac", [
        lambda x: np.eye(2),                            # one matrix for the whole stack
        lambda x: np.zeros((x.shape[0], 4)),            # flattened blocks
        lambda x: np.zeros((2, 2, x.shape[0])),         # the stack on the last axis
        lambda x: np.zeros(x.shape + (3,)),             # blocks of the wrong size
    ], ids=["one-matrix", "flattened", "last-axis", "wrong-block"])
    def test_wrong_stacked_shape_rejected(self, jac):
        p = NonlinearProblem(dim=2, f=lambda x: x, jac=rowwise(jac))
        with pytest.raises(ValueError, match=r"^jacobian returned shape .*, "
                                             r"expected \(8, 2, 2\)$"):
            estimate_bounds(p, np.ones(2), 1.0, samples=8)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_stack_rejected(self, bad):
        # non-finite in the blocks of the points right of the center only
        jac = rowwise(lambda x: np.where(x[..., :1, None] > 1.0, bad, np.eye(2)))
        p = NonlinearProblem(dim=2, f=lambda x: x, jac=jac)
        with pytest.raises(ValueError, match=r"^jacobian returned a non-finite entry "
                                             r"at index \(\d, 0, 0\)$"):
            estimate_bounds(p, np.ones(2), 1.0, samples=8, seed=0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_plain_jacobian_names_its_sample(self, bad):
        # one call per point, all sample points before all shifted ones: the
        # error names the first sample point right of the center
        center, radius, samples, seed = np.ones(2), 1.0, 8, 0
        p = NonlinearProblem(dim=2, f=lambda x: x,
                             jac=lambda x: np.full((2, 2), bad) if x[0] > 1.0 else np.eye(2))
        points = _ball_points(center, radius, samples, np.random.default_rng(seed))
        first = int(np.flatnonzero(points[:, 0] > 1.0)[0])
        with pytest.raises(ValueError, match=rf"^jacobian returned a non-finite entry "
                                             rf"at index \(0, 0\) at sample {first}$"):
            estimate_bounds(p, center, radius, samples=samples, seed=seed)

    def test_marker_follows_the_callable(self):
        # a problem rebuilt from the same jac keeps the two-call path
        jac, calls = counted(lambda x: np.zeros(x.shape + (2,)) + np.eye(2))
        entry = NonlinearProblem(dim=2, f=lambda x: x, jac=rowwise(jac))
        rebuilt = dataclasses.replace(entry, label="rebuilt")
        estimate_bounds(rebuilt, np.ones(2), 1.0, samples=3)
        assert calls == [(3, 2)] * 2


class TestEstimateBounds:
    def test_affine_second_derivative_vanishes(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((4, 4))
        p = affine_problem(A, np.zeros(4))
        bounds = estimate_bounds(p, np.zeros(4), radius=1.0, samples=32, seed=0)
        assert bounds.N2 < 1e-6

    def test_identity_N1(self):
        p, xhat = identity_problem(xhat=XHAT)
        bounds = estimate_bounds(p, xhat, radius=0.5, samples=16, seed=0)
        assert bounds.N1 == pytest.approx(1.1, rel=1e-9)

    def test_quadratic_diagonal_N2(self):
        p = NonlinearProblem(dim=3, f=lambda x: x**2,
                             jac=lambda x: 2.0 * np.diag(x))
        bounds = estimate_bounds(p, np.zeros(3), radius=1.0, samples=128, seed=1)
        assert bounds.N2 == pytest.approx(2.2, rel=0.05)

    def test_monotone_in_radius(self):
        p = NonlinearProblem(dim=3, f=lambda x: x**2,
                             jac=lambda x: 2.0 * np.diag(x))
        prev_n1, prev_n2 = 0.0, 0.0
        for radius in (0.5, 1.0, 2.0, 4.0):
            bounds = estimate_bounds(p, np.ones(3), radius, samples=64, seed=2)
            assert bounds.N1 >= prev_n1
            # differencing step scales with the radius, so N2 carries
            # roundoff-level wiggle between radii
            assert bounds.N2 >= prev_n2 * (1.0 - 1e-9)
            prev_n1, prev_n2 = bounds.N1, bounds.N2

    def test_taylor_remainder_bounded(self):
        # ||F(x) - F(c) - F'(c)(x-c)|| <= (N2/2) ||x-c||^2 on sampled points
        entry = gallery.make_autoconvolution(10)
        p = entry.problem
        c = entry.xhat
        bounds = estimate_bounds(p, c, radius=0.5, samples=128, seed=3)
        Jc = jacobian(p, c)
        Fc = eval_F(p, c)
        rng = np.random.default_rng(4)
        for _ in range(50):
            d = rng.standard_normal(p.dim)
            d *= rng.uniform(0.0, 0.5) / np.linalg.norm(d)
            lhs = np.linalg.norm(eval_F(p, c + d) - Fc - Jc @ d)
            assert lhs <= 0.5 * bounds.N2 * np.linalg.norm(d) ** 2 + 1e-12

    def test_deterministic_given_seed(self):
        p = NonlinearProblem(dim=2, f=lambda x: x**2, jac=lambda x: 2.0 * np.diag(x))
        b1 = estimate_bounds(p, np.ones(2), 1.0, samples=16, seed=5)
        b2 = estimate_bounds(p, np.ones(2), 1.0, samples=16, seed=5)
        assert (b1.N1, b1.N2) == (b2.N1, b2.N2)

    def test_bad_radius(self):
        p, xhat = identity_problem(xhat=XHAT)
        with pytest.raises(ValueError):
            estimate_bounds(p, xhat, radius=0.0)

    def test_inflation_configurable(self):
        # BOUND_INFLATION is the one inflation factor: ||F'|| = 1 on the
        # identity, so the sampled N1 is the factor itself
        p, xhat = identity_problem(xhat=XHAT)
        b = estimate_bounds(p, xhat, radius=0.5, samples=8, seed=0)
        assert b.N1 == BOUND_INFLATION

    @pytest.mark.parametrize("label, n, stack", [
        ("compliant-affine-8", 8, 1),     # one Jacobian sampled 64 times, zero differences
        ("compliant-quadratic-4", 4, 64),  # the Jacobian's diagonal moves with x
    ], ids=["spd", "quadratic"])
    def test_one_svd_per_constant_stack(self, label, n, stack, svd_shapes):
        # the unmarked twin: the gallery's affine Jacobian is marked constant
        # and would take the exact path, which samples nothing
        entry = gallery.get_entry(label)
        p = unmarked(entry.problem)
        svd_shapes.clear()
        estimate_bounds(p, entry.xhat, 0.5)
        assert svd_shapes == [(stack, n, n)] * 2


class TestConstantJacobianBounds:
    """A :func:`constant_jacobian` takes exact bounds with the bits of sampling."""

    @pytest.mark.parametrize("samples", [1, 64])
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("radius", [0.5, 1.0, 1e6])
    @pytest.mark.parametrize("kind", CONSTANT_FAMILIES)
    def test_equal_to_unmarked(self, kind, radius, seed, samples):
        p = FAMILIES[kind](6, np.random.default_rng(3))
        assert p.jac.constant_jacobian
        twin = unmarked(p)
        assert not hasattr(twin.jac, "constant_jacobian")
        center = p.known_solution + 0.25
        exact = estimate_bounds(p, center, radius, samples=samples, seed=seed)
        sampled = estimate_bounds(twin, center, radius, samples=samples, seed=seed)
        assert_same_bits(exact.N1, sampled.N1)
        assert_same_bits(exact.N2, sampled.N2)
        assert_same_bits(exact.center, sampled.center)
        assert (exact.radius, exact.samples) == (sampled.radius, sampled.samples)

    @pytest.mark.parametrize("kind", CONSTANT_FAMILIES)
    def test_norm_taken_once_per_problem(self, kind, record_calls, svd_shapes):
        p = FAMILIES[kind](6, np.random.default_rng(3))
        calls = record_calls(problem.jacobian)
        first = estimate_bounds(p, p.known_solution, 1.0)
        assert len(calls["jacobian"]) == 1
        assert svd_shapes == [(1, p.dim, p.dim)]
        calls["jacobian"].clear()
        svd_shapes.clear()
        again = estimate_bounds(p, p.known_solution - 3.0, 1e6, samples=5, seed=7)
        assert calls["jacobian"] == []
        assert svd_shapes == []
        assert (again.N1, again.N2) == (first.N1, first.N2)

    def test_arguments_checked_first(self):
        p = FAMILIES["identity"](3, None)
        for kwargs in ({"radius": 0.0}, {"radius": 1.0, "samples": 0}):
            with pytest.raises(ValueError):
                estimate_bounds(p, p.known_solution, **kwargs)
        with pytest.raises(ValueError):
            estimate_bounds(p, np.ones(p.dim + 1), 1.0)


def _autoconv_ascent(p, steps=300):
    """A unit h at which ||F''[h]|| of the autoconvolution p is locally
    largest, by a power-style ascent: F' is linear in x, so F''[h] is
    ``p.jac(h)``, and the gradient of its largest singular value u* J(h) v
    is the sum of u_i v_k over each diagonal i - k."""
    n = p.dim
    h = np.ones(n) / np.sqrt(n)
    for _ in range(steps):
        U, _, Vt = np.linalg.svd(p.jac(h))
        g = np.array([U[m:, 0] @ Vt[0, :n - m] for m in range(n)])
        h = g / np.linalg.norm(g)
    return h


class TestAnalyticBounds:
    """An :func:`analytic_bounds` hook answers first, with the bounds as it
    gives them, and they bound what sampling finds."""

    @pytest.mark.parametrize("kind", ANALYTIC_FAMILIES)
    def test_hook_answers_unsampled(self, kind, svd_shapes):
        p = FAMILIES[kind](6, np.random.default_rng(3))
        hook = p.jac.analytic_bounds

        @analytic_bounds(hook)
        def jac(x):
            raise AssertionError("no Jacobian is evaluated")

        p = dataclasses.replace(p, jac=jac)
        svd_shapes.clear()
        center = p.known_solution + 0.25
        got = estimate_bounds(p, center, 0.5, samples=7, seed=3)
        N1, N2 = map(float, hook(center, 0.5))
        want = BallBounds(center=center, radius=0.5, N1=N1, N2=N2, samples=7, source="analytic")
        for field in dataclasses.fields(BallBounds):
            a, b = getattr(got, field.name), getattr(want, field.name)
            assert type(a) is type(b), field.name
            assert np.array_equal(a, b), field.name
        assert svd_shapes == []

    def test_hooked_families_listed(self):
        hooked = {kind for kind, build in FAMILIES.items()
                  if build(6, np.random.default_rng(0))._analytic_bounds is not None}
        assert hooked == set(ANALYTIC_FAMILIES)
        assert gallery.make_feigenbaum_like(6).problem._analytic_bounds is None

    def test_marker_rides_on_the_callable(self):
        clean = gallery.get_entry("compliant-quadratic-4").problem
        noisy = gallery.get_entry("compliant-quadratic-4", noise=1e-3).problem
        # a data shift leaves F' and F'' as they are, and so the bounds
        assert noisy._analytic_bounds is clean._analytic_bounds is not None
        xhat = clean.known_solution
        for a, b in zip(*(dataclasses.astuple(estimate_bounds(q, xhat, 1.0))
                          for q in (noisy, clean))):
            assert np.array_equal(a, b)
        for twin in (without_jacobian(clean), unmarked(clean), sampled(clean)):
            assert twin._analytic_bounds is None
            assert estimate_bounds(twin, xhat, 1.0).source == "sampled"

    def test_arguments_checked_first(self):
        p = FAMILIES["quadratic"](3, np.random.default_rng(0))
        for kwargs in ({"radius": 0.0}, {"radius": np.inf}, {"radius": 1.0, "samples": 0}):
            with pytest.raises(ValueError):
                estimate_bounds(p, p.known_solution, **kwargs)
        with pytest.raises(ValueError):
            estimate_bounds(p, np.ones(p.dim + 1), 1.0)

    @settings(max_examples=60)
    @given(p=problems(kinds=("quadratic", "autoconv")), radius=log_uniform(-2.0, 1.0),
           samples=st.integers(1, 64), seed=seeds, data=st.data())
    def test_sampling_never_exceeds_the_analytic_bounds(self, p, radius, samples, seed, data):
        # The twin's raw bounds, before BOUND_INFLATION, against the
        # analytic ones. The allowance is rounding, bounded from the
        # difference step delta = 1e-4 * radius: with X = ||center||_inf +
        # 2 radius, which bounds every coordinate of a sample or shifted
        # sample, scale = N1 + X bounds every Jacobian entry and every
        # rounded coordinate; each entry is formed with at most 3 roundings
        # of size u * scale, and a difference of two such Jacobians, divided
        # by delta, is off by at most 8 u scale / delta (the shift rounded
        # into the point adds u X / delta). N1 is off by the entries'
        # roundings and the SVD's, 4 n u scale.
        center = data.draw(near(p.known_solution))
        analytic = estimate_bounds(p, center, radius)
        assert analytic.source == "analytic"
        twin = estimate_bounds(unmarked(p), center, radius, samples=samples, seed=seed)
        assert twin.source == "sampled"
        u = np.finfo(float).eps / 2.0
        scale = analytic.N1 + float(np.max(np.abs(center))) + 2.0 * radius
        assert twin.N1 / BOUND_INFLATION <= analytic.N1 + 4 * p.dim * u * scale
        assert twin.N2 / BOUND_INFLATION <= analytic.N2 + 8 * u * scale / (1e-4 * radius)

    def test_sampling_misses_the_quadratic_sup(self):
        # the sup of ||F''|| is 2 nu, reached along a coordinate axis; in 16
        # dimensions no sampled direction comes near one, and the sampled
        # N2, inflated, falls short of it: a certificate on it would claim
        # a larger ball than its N2 supports
        nu = gallery.QUADRATIC_NU
        p = gallery._base_instance(16, "quadratic", np.random.default_rng(0))[0]
        xhat = p.known_solution
        twin = estimate_bounds(unmarked(p), xhat, 1.0)
        analytic = estimate_bounds(p, xhat, 1.0)
        e0 = np.eye(16)[0]
        second = np.linalg.norm((p.jac(xhat + 1e-3 * e0) - p.jac(xhat)) / 1e-3, 2)
        assert second == pytest.approx(2.0 * nu, rel=1e-9)
        assert twin.N2 < 2.0 * nu == analytic.N2
        assert second <= analytic.N2 * (1.0 + 1e-9)

    def test_autoconv_ascent_within_N2(self):
        # sampling gives N2 = 0.2815 on autoconv-16, and an ascent finds
        # ||F''[h]|| = 0.35367 > 0.2815; the analytic N2 = 2 ds sqrt(n) = 0.5
        # bounds both
        p = gallery.make_autoconvolution(16).problem
        xhat = p.known_solution
        second = np.linalg.norm(p.jac(_autoconv_ascent(p)), 2)
        twin = estimate_bounds(unmarked(p), xhat, 1.0)
        analytic = estimate_bounds(p, xhat, 1.0)
        assert second > 0.3536
        assert twin.N2 < second <= analytic.N2 == 0.5


def _batching_problem(kind):
    """(problem, radius) for the batching oracle."""
    rng = np.random.default_rng(21)
    if kind == "affine":
        return affine_problem(rng.standard_normal((5, 5)), np.zeros(5)), 0.7
    if kind == "quadratic":
        Q = rng.standard_normal((4, 4))
        return NonlinearProblem(dim=4, f=lambda x: Q @ x + 0.3 * x**2,
                                jac=lambda x: Q + 0.6 * np.diag(x)), 1.0
    return gallery.make_autoconvolution(8).problem, 0.5


@pytest.mark.parametrize("seed", [0, 17])
@pytest.mark.parametrize("jac_mode", ["analytic", "fd"])
@pytest.mark.parametrize("kind", ["affine", "quadratic", "autoconv"])
def test_batched_norms_match_per_sample_loop(kind, jac_mode, seed):
    p, radius = _batching_problem(kind)
    # the analytic Jacobian without the hook that would answer unsampled
    p = NonlinearProblem(dim=p.dim, f=p.f) if jac_mode == "fd" else sampled(p)
    center = np.linspace(-0.2, 0.3, p.dim)
    bounds = estimate_bounds(p, center, radius, samples=24, seed=seed)
    oracle = reference_bounds(p, center, radius, 24, seed)
    assert (bounds.N1, bounds.N2) == (oracle.N1, oracle.N2)


class TestKnownSolutionValidation:
    def test_accepts_true_root(self):
        NonlinearProblem(dim=2, f=lambda x: x - 1.0, known_solution=np.ones(2))

    def test_rejects_non_root(self):
        with pytest.raises(ValueError, match="not a root"):
            NonlinearProblem(dim=2, f=lambda x: x - 1.0, known_solution=np.zeros(2))

    def test_validation_can_be_disabled(self):
        NonlinearProblem(dim=2, f=lambda x: x - 1.0, known_solution=np.zeros(2),
                         validate_solution=False)


class TestImmutable:
    def test_fields_cannot_be_assigned(self):
        p, _ = identity_problem(xhat=XHAT)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.known_solution = np.zeros(p.dim)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.f = lambda x: x

    def test_hash_and_equality_by_identity(self):
        a = NonlinearProblem(dim=2, f=lambda x: x - 1.0, known_solution=np.ones(2))
        b = NonlinearProblem(dim=2, f=a.f, known_solution=np.ones(2))
        assert a == a and a != b
        assert len({a, b}) == 2
