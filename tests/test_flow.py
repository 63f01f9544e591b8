import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    affine_problem,
    assert_same_bits,
    checked_coupled_rhs,
    checked_direct_rhs,
    compliant,
    frozen,
    identity_problem,
    seeds,
)

from gnflow import gallery, hilbert, problem, theory
from gnflow.flow import (
    SolverState,
    coupled_rhs,
    diagnostics,
    direct_rhs,
    initial_inverse,
    mismatch_operator,
    scaled_identity_inverse,
    solution_gram,
)
from gnflow.integrator import IntegratorConfig, integrate
from gnflow.problem import jacobian
from gnflow.schedule import PowerSchedule


def strided_9():
    """(problem, xhat, x0) of an affine problem whose F' is a strided view:
    every other row and column of an 18 x 18 matrix."""
    rng = np.random.default_rng(9)
    A = (np.eye(18) + 0.2 * rng.standard_normal((18, 18)))[::2, ::2]
    xhat = rng.standard_normal(9)
    p = problem.NonlinearProblem(dim=9, f=lambda x: A @ (x - xhat), jac=lambda x: A,
                                 known_solution=xhat)
    return p, xhat, xhat + 0.1


def laid_out(M, layout):
    """M with its entries in the memory ``layout``: "C" or "F" order (F is
    also the layout of the transpose of a C-order matrix), "strided" (every
    other row and column of a C-order buffer twice the size) or
    "transposed-strided" (the transpose of such a view)."""
    if layout == "C":
        return np.ascontiguousarray(M)
    if layout == "F":
        return np.asfortranarray(M)
    n = len(M)
    buffer = np.zeros((2 * n, 2 * n))
    if layout == "strided":
        buffer[::2, ::2] = M
        return buffer[::2, ::2]
    buffer[::2, ::2] = M.T
    return buffer[::2, ::2].T


LAYOUTS = ("C", "F", "strided", "transposed-strided")


class TestDirectRhs:
    def test_stationary_at_anchored_root(self):
        p, xhat = identity_problem()
        s = PowerSchedule(c0=0.1, c1=1.0, a=1.0)
        assert np.allclose(direct_rhs(p, s, xhat, xhat, 0.0), 0.0, atol=1e-14)

    def test_identity_closed_form(self):
        # anchored at the root, the identity flow is plain exponential decay
        p, xhat = identity_problem()
        s = PowerSchedule(c0=0.3, c1=2.0, a=1.0)
        rng = np.random.default_rng(1)
        for t in (0.0, 1.0, 7.5):
            x = xhat + rng.standard_normal(3)
            assert np.allclose(direct_rhs(p, s, xhat, x, t), -(x - xhat), atol=1e-12)

    def test_against_dense_inverse_oracle(self):
        rng = np.random.default_rng(2)
        s = PowerSchedule(c0=0.2, c1=1.0, a=1.0)
        for _ in range(10):
            n = int(rng.integers(2, 11))
            A = rng.standard_normal((n, n))
            xhat = rng.standard_normal(n)
            p = affine_problem(A, xhat)
            x0 = rng.standard_normal(n)
            x = rng.standard_normal(n)
            t = float(rng.uniform(0, 5))
            eps = s.eps(t)
            rhs = A.T @ (A @ (x - xhat)) + eps * (x - x0)
            oracle = -np.linalg.inv(A.T @ A + eps * np.eye(n)) @ rhs
            got = direct_rhs(p, s, x0, x, t)
            assert np.linalg.norm(got - oracle) <= 1e-9 * (1 + np.linalg.norm(oracle))


class TestCoupledRhs:
    def test_stationary_pair(self):
        p, xhat = identity_problem()
        s = PowerSchedule(c0=0.1, c1=1.0, a=1.0)
        eps0 = s.eps(0.0)
        B = np.eye(3) / (1.0 + eps0)
        x_dot, B_dot = coupled_rhs(p, s, xhat, xhat, B, 0.0)
        assert np.allclose(x_dot, 0.0, atol=1e-14)
        assert np.allclose(B_dot, 0.0, atol=1e-14)

    def test_identity_inverse_track_closed_form(self):
        p, xhat = identity_problem()
        s = PowerSchedule(c0=0.1, c1=1.0, a=1.0)
        eps0 = s.eps(0.0)
        for beta in (0.2, 1.0, 1.0 / (1.0 + eps0)):
            _, B_dot = coupled_rhs(p, s, xhat, xhat, beta * np.eye(3), 0.0)
            expected = -((1.0 + eps0) * beta - 1.0) * np.eye(3)
            assert np.allclose(B_dot, expected, atol=1e-14)

    def test_equivalence_oracle_random_affine(self):
        # with B the exact regularized inverse the coupled velocity matches
        # the direct one and the inverse track is stationary
        rng = np.random.default_rng(3)
        s = PowerSchedule(c0=0.5, c1=1.0, a=1.0)
        for _ in range(20):
            n = int(rng.integers(2, 11))
            A = rng.standard_normal((n, n))
            xhat = rng.standard_normal(n)
            p = affine_problem(A, xhat)
            x0 = rng.standard_normal(n)
            x = rng.standard_normal(n)
            t = float(rng.uniform(0, 3))
            eps = s.eps(t)
            B = np.linalg.inv(A.T @ A + eps * np.eye(n))
            x_dot, B_dot = coupled_rhs(p, s, x0, x, B, t)
            ref = direct_rhs(p, s, x0, x, t)
            assert np.linalg.norm(x_dot - ref) <= 1e-10 * (1 + np.linalg.norm(ref))
            assert np.linalg.norm(B_dot, 2) <= 1e-10

    def test_requires_inverse_track(self):
        p, xhat = identity_problem()
        s = PowerSchedule(c0=0.1, c1=1.0, a=1.0)
        with pytest.raises(ValueError, match="inverse track"):
            coupled_rhs(p, s, xhat, xhat, None, 0.0)


class TestStageBits:
    """Both stage kernels against the checked stage of ``tests/oracles.py``,
    bit for bit, over the memory layouts of F' and B. A run's records
    can hide a last-place difference of one stage, which rounding x
    absorbs, so the stages are compared on their own."""

    def test_strided_jacobian_and_inverse_track(self):
        p, xhat, x0 = strided_9()
        s = PowerSchedule(c0=0.1, c1=1.0, a=1.0)
        B0 = initial_inverse(p, x0, s.eps(0.0))
        rng = np.random.default_rng(90)
        for layout in ("F", "strided", "transposed-strided"):
            B = laid_out(B0 + 0.01 * rng.standard_normal((9, 9)), layout)
            for t in (0.0, 0.37, 4.0):
                x = x0 + 0.1 * rng.standard_normal(9)
                assert_same_bits(direct_rhs(p, s, x0, x, t), checked_direct_rhs(p, s, x0, x, t))
                for got, want in zip(coupled_rhs(p, s, x0, x, B, t),
                                     checked_coupled_rhs(p, s, x0, x, B, t)):
                    assert_same_bits(got, want)

    @settings(max_examples=120)
    @given(n=st.integers(1, 16), jac_layout=st.sampled_from(LAYOUTS),
           B_layout=st.sampled_from(LAYOUTS), t=st.floats(0.0, 10.0), seed=seeds)
    def test_any_layout(self, n, jac_layout, B_layout, t, seed):
        rng = np.random.default_rng(seed)
        A = laid_out(np.eye(n) + rng.standard_normal((n, n)), jac_layout)
        xhat, x0, x = rng.standard_normal((3, n))
        p = problem.NonlinearProblem(dim=n, f=lambda x: A @ (x - xhat), jac=lambda x: A)
        B = laid_out(rng.standard_normal((n, n)), B_layout)
        s = PowerSchedule(c0=0.1, c1=1.0, a=1.0)
        assert_same_bits(direct_rhs(p, s, x0, x, t), checked_direct_rhs(p, s, x0, x, t))
        for got, want in zip(coupled_rhs(p, s, x0, x, B, t),
                             checked_coupled_rhs(p, s, x0, x, B, t)):
            assert_same_bits(got, want)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_zero_gradient(self, n):
        # at x = x0 = xhat the gradient is +0.0. np.dot and the matmul
        # operator call the same BLAS routine for n >= 2, and then agree bit
        # for bit here too; a 1 x 1 product is one multiplication under
        # np.dot, (-b) * 0.0 = -0.0, where matmul adds it to +0.0. So at
        # n = 1 the coupled x-velocity is -0.0 where the checked stage's is
        # +0.0: equal values, the one bit the stage kernels do not keep.
        rng = np.random.default_rng(n)
        xhat = rng.standard_normal(n)
        p = affine_problem(np.eye(n) + 0.1 * rng.standard_normal((n, n)), xhat)
        s = PowerSchedule(c0=0.1, c1=1.0, a=1.0)
        B = initial_inverse(p, xhat, s.eps(0.0))
        assert_same_bits(direct_rhs(p, s, xhat, xhat, 0.0),
                         checked_direct_rhs(p, s, xhat, xhat, 0.0))
        x_dot, B_dot = coupled_rhs(p, s, xhat, xhat, B, 0.0)
        want_x, want_B = checked_coupled_rhs(p, s, xhat, xhat, B, 0.0)
        assert_same_bits(B_dot, want_B)
        assert np.array_equal(x_dot, want_x) and not x_dot.any()
        assert_same_bits(x_dot, -want_x if n == 1 else want_x)


class TestInitialInverse:
    def test_matches_dense_inverse(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((5, 5))
        p = affine_problem(A, np.zeros(5))
        B0 = initial_inverse(p, np.zeros(5), 0.1)
        oracle = np.linalg.inv(A.T @ A + 0.1 * np.eye(5))
        assert np.allclose(B0, oracle, atol=1e-10)

    @pytest.mark.parametrize("label", gallery.available_labels())
    def test_one_factorization_matches_column_by_column(self, label):
        entry = gallery.get_entry(label)
        p, x0 = entry.problem, entry.default_x0
        J = jacobian(p, x0)
        G = J.T @ J
        for eps0 in (1e-3, 0.1):
            reference = np.column_stack(
                [hilbert.solve_regularized(G, eps0, e) for e in np.eye(p.dim)])
            assert_same_bits(initial_inverse(p, x0, eps0), reference)

    def test_scaled_identity_mode(self):
        p, xhat = identity_problem()
        B0 = scaled_identity_inverse(p, xhat, 0.5)
        assert np.allclose(B0, np.eye(3) / 1.5, atol=1e-8)

    @pytest.mark.parametrize("label", gallery.available_labels())
    def test_scaled_identity_norm_from_one_matrix_stack(self, label, record_calls):
        # the one-matrix stack of op_norms, with the bits of op_norm
        entry = gallery.get_entry(label)
        p, x0 = entry.problem, entry.default_x0
        calls = record_calls(hilbert.op_norms)
        got = scaled_identity_inverse(p, x0, 1e-3)
        assert [np.shape(args[0]) for args in calls["op_norms"]] == [(1, p.dim, p.dim)]
        n1 = hilbert.op_norm(jacobian(p, x0))
        assert_same_bits(got, np.eye(p.dim) / (n1**2 + 1e-3))

    @pytest.mark.parametrize("eps0", [-1.0, -3.0, 0.0, np.inf, np.nan])
    def test_scaled_identity_rejects_bad_eps0(self, eps0):
        # eps0 = -1 used to divide by zero and eps0 = -3 to return -0.5*I;
        # initial_inverse rejects the same values
        p, xhat = identity_problem()
        with pytest.raises(ValueError, match="must be positive and finite"):
            scaled_identity_inverse(p, xhat, eps0)


class TestDiagnostics:
    def test_exact_inverse_at_solution(self):
        p, xhat = identity_problem()
        s = PowerSchedule(c0=0.1, c1=1.0, a=1.0)
        eps0 = s.eps(0.0)
        st = SolverState(t=0.0, x=xhat, B=np.eye(3) / (1.0 + eps0))
        d = diagnostics(p, s, st, xhat)
        assert d.lambda_norm == pytest.approx(0.0, abs=1e-12)
        assert d.inverse_residual == pytest.approx(0.0, abs=1e-12)
        assert d.err_norm == 0.0

    def test_zero_inverse_track(self):
        p, xhat = identity_problem()
        s = PowerSchedule(c0=0.1, c1=1.0, a=1.0)
        st = SolverState(t=0.0, x=xhat, B=np.zeros((3, 3)))
        d = diagnostics(p, s, st, xhat)
        assert d.lambda_norm == pytest.approx(1.0, rel=1e-9)
        assert d.inverse_residual == pytest.approx(1.0, rel=1e-9)

    def test_optional_fields_without_solution(self):
        p, xhat = identity_problem()
        s = PowerSchedule(c0=0.1, c1=1.0, a=1.0)
        st = SolverState(t=0.0, x=xhat + 1.0, B=np.eye(3))
        d = diagnostics(p, s, st, xhat=None)
        assert d.err_norm is None and d.lambda_norm is None and d.D_norm is None
        assert d.B_norm is not None and d.inverse_residual is not None

    @pytest.mark.parametrize("label", ["compliant-affine-8", "feigenbaum-6", "strided-9"])
    def test_norms_are_of_the_flow_operators(self, label):
        # inverse_residual is ||B'|| of the B' the coupled flow integrates, and
        # lambda_norm ||Lambda|| of mismatch_operator, bit for bit at every record.
        # J.T @ J of the strided Jacobian is not exactly symmetric on OpenBLAS's
        # Haswell and Prescott kernels (odd n >= 9), so no symmetrized copy of
        # the flow's operator may stand in for it.
        if label == "strided-9":
            p, xhat, x0 = strided_9()
        else:
            entry = gallery.get_entry(label)
            p, xhat, x0 = entry.problem, entry.xhat, entry.default_x0
        s = PowerSchedule(c0=0.1, c1=1.0, a=1.0)
        st0 = SolverState(t=0.0, x=x0, B=initial_inverse(p, x0, s.eps(0.0)))
        cfg = IntegratorConfig(method="rk4", step_h=0.01, horizon_T=1.0, record_every=10)
        traj = integrate(p, s, st0, cfg, xhat=xhat)
        assert len(traj.records) == 11
        for st, d in traj.records:
            B_dot = coupled_rhs(p, s, x0, st.x, st.B, st.t)[1]
            assert d.inverse_residual == hilbert.op_norm(B_dot)
            assert d.lambda_norm == hilbert.op_norm(mismatch_operator(p, xhat, st.B, d.eps))

    def test_inverse_norm_bound_along_compliant_run(self):
        # ||B(t)|| stays below 1/eps(t) + ||B(0)|| along a certified run
        entry, sched, B0, R = compliant("compliant-affine-2")
        p, xhat = entry.problem, entry.xhat
        b0_norm = hilbert.op_norm(B0)
        st0 = SolverState(t=0.0, x=entry.default_x0, B=B0)
        cfg = IntegratorConfig(method="rk4", step_h=0.01, horizon_T=20.0, record_every=20)
        traj = integrate(p, sched, st0, cfg, xhat=xhat)
        for _, d in traj.records:
            assert d.B_norm <= 1.0 / d.eps + b0_norm + 1e-8

    def test_projected_gram_bound_along_compliant_run(self):
        # ||B(t) F'(xh)* F'(xh)|| <= k + 2 + eps(0)||B(0)|| on certified runs
        entry, sched, B0, R = compliant("compliant-quadratic-4")
        p, xhat = entry.problem, entry.xhat
        cert, _ = theory.certify_with_canonical_R(p, xhat, entry.default_x0, sched, B0)
        st0 = SolverState(t=0.0, x=entry.default_x0, B=B0)
        cfg = IntegratorConfig(method="rk4", step_h=0.01, horizon_T=20.0, record_every=20)
        traj = integrate(p, sched, st0, cfg, xhat=xhat)
        bound = cert.k + 2.0 + cert.eps0 * cert.B0_norm
        for _, d in traj.records:
            assert d.D_norm <= bound + 1e-6


class TestFlowInvariants:
    def test_symmetry_preserved_affine(self):
        # constant Gram operator keeps a symmetric inverse track symmetric
        rng = np.random.default_rng(5)
        A = rng.standard_normal((4, 4))
        xhat = rng.standard_normal(4)
        p = affine_problem(A, xhat)
        s = PowerSchedule(c0=0.1, c1=1.0, a=1.0)
        x0 = xhat + 0.1 * rng.standard_normal(4)
        B0 = initial_inverse(p, x0, s.eps(0.0))
        st0 = SolverState(t=0.0, x=x0, B=B0)
        cfg = IntegratorConfig(method="rk4", step_h=0.01, horizon_T=10.0, record_every=100)
        traj = integrate(p, s, st0, cfg, xhat=xhat)
        for st, _ in traj.records:
            assert np.max(np.abs(st.B - st.B.T)) <= 1e-9

    def test_symmetry_nearly_preserved_small_drift_nonlinear(self):
        # the Gram operator varies along a nonlinear trajectory and its
        # values at different times do not commute, so symmetry of the
        # inverse track survives only up to the commutator scale (exact
        # preservation needs a constant Jacobian, covered above)
        entry, sched, B0, R = compliant("compliant-quadratic-4")
        st0 = SolverState(t=0.0, x=entry.default_x0, B=B0)
        cfg = IntegratorConfig(method="rk4", step_h=0.01, horizon_T=20.0, record_every=100)
        traj = integrate(entry.problem, sched, st0, cfg, xhat=entry.xhat)
        for st, _ in traj.records:
            assert np.max(np.abs(st.B - st.B.T)) <= 1e-5

    def test_frozen_eps_affine_reaches_tikhonov_point(self):
        # with eps frozen, x(t) settles at the regularized normal-equations
        # solution: (A*A + eps0 I)(x* - x0) = -A*F(x0)
        rng = np.random.default_rng(6)
        A = rng.standard_normal((4, 4))
        xhat = rng.standard_normal(4)
        p = affine_problem(A, xhat)
        eps0 = 0.25
        s = frozen(eps0)
        x0 = xhat + rng.standard_normal(4)
        M = A.T @ A + eps0 * np.eye(4)
        x_star = x0 + np.linalg.solve(M, -(A.T @ (A @ (x0 - xhat))))
        st0 = SolverState(t=0.0, x=x0, B=None)
        cfg = IntegratorConfig(method="rk4", step_h=0.05, horizon_T=100.0,
                               record_every=10**9)
        traj = integrate(p, s, st0, cfg, xhat=xhat)
        assert np.linalg.norm(traj.final_state.x - x_star) <= 1e-6

    def test_frozen_eps_coupled_matches_direct_limit(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((3, 3))
        xhat = rng.standard_normal(3)
        p = affine_problem(A, xhat)
        eps0 = 0.25
        s = frozen(eps0)
        x0 = xhat + rng.standard_normal(3)
        M = A.T @ A + eps0 * np.eye(3)
        x_star = x0 + np.linalg.solve(M, -(A.T @ (A @ (x0 - xhat))))
        B0 = initial_inverse(p, x0, eps0)
        st0 = SolverState(t=0.0, x=x0, B=B0)
        cfg = IntegratorConfig(method="rk4", step_h=0.05, horizon_T=100.0,
                               record_every=10**9)
        traj = integrate(p, s, st0, cfg, xhat=xhat)
        assert np.linalg.norm(traj.final_state.x - x_star) <= 1e-6


class TestMismatchOperator:
    def test_exact_inverse_zeroes_mismatch(self):
        p, xhat = identity_problem()
        L = mismatch_operator(p, xhat, np.eye(3) / 1.1, 0.1)
        assert np.allclose(L, 0.0, atol=1e-12)


class TestSolutionGram:
    def test_formed_once_and_shared_read_only(self):
        rng = np.random.default_rng(12)
        A = rng.standard_normal((5, 5))
        xhat = rng.standard_normal(5)
        p = affine_problem(A, xhat)
        gram = solution_gram(p, xhat)
        J = jacobian(p, xhat)
        assert np.array_equal(gram, J.T @ J)
        assert not gram.flags.writeable
        assert solution_gram(p, xhat.copy()) is gram
        assert solution_gram(p, xhat + 1.0) is not gram

    def test_does_not_keep_the_problem_alive(self):
        p, xhat = identity_problem()
        solution_gram(p, xhat)
        alive = weakref.ref(p)
        del p
        gc.collect()
        assert alive() is None

    def test_integrate_evaluates_jacobian_at_xhat_once(self, record_calls):
        rng = np.random.default_rng(13)
        A = np.eye(4) + 0.1 * rng.standard_normal((4, 4))
        xhat = rng.standard_normal(4)
        p = affine_problem(A, xhat)
        s = PowerSchedule(c0=0.1, c1=1.0, a=1.0)
        x0 = xhat + 0.01
        st0 = SolverState(t=0.0, x=x0, B=initial_inverse(p, x0, s.eps(0.0)))
        calls = record_calls(problem.jacobian)
        cfg = IntegratorConfig(method="rk4", step_h=0.01, horizon_T=0.2, record_every=1)
        traj = integrate(p, s, st0, cfg, xhat=xhat)
        assert len(traj.records) == 21
        at_xhat = [args for args in calls["jacobian"] if np.array_equal(args[1], xhat)]
        assert len(at_xhat) <= 1
        Gh, I = A.T @ A, np.eye(4)
        for st, d in traj.records:
            assert d.D_norm == hilbert.op_norm(st.B @ Gh)
            assert d.lambda_norm == hilbert.op_norm(I - st.B @ (Gh + d.eps * I))

    def test_certificate_evaluates_jacobian_at_xhat_at_most_once(self, record_calls):
        entry, sched, B0, R = compliant("compliant-affine-8")
        calls = record_calls(problem.jacobian)
        theory.certify_with_canonical_R(entry.problem, entry.xhat, entry.default_x0, sched, B0)
        at_xhat = [args for args in calls["jacobian"] if np.array_equal(args[1], entry.xhat)]
        assert len(at_xhat) <= 1
