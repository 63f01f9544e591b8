import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    affine_problem,
    assert_same_run,
    compliant,
    log_uniform,
    near,
    problems,
    schedules,
    without_jacobian,
)

from gnflow import flow, gallery, integrator, problem
from gnflow.flow import SolverState, direct_rhs, initial_inverse
from gnflow.hilbert import FactorizationError
from gnflow.integrator import (
    TERMINATION_TAGS,
    IntegratorConfig,
    convergence_order,
    integrate,
    step,
)
from gnflow.problem import NonlinearProblem
from gnflow.schedule import PowerSchedule, default_schedule


class TestStep:
    def test_zero_rhs_keeps_state(self):
        rhs = lambda t, x, B: (np.zeros_like(x), None if B is None else np.zeros_like(B))
        st = SolverState(t=0.0, x=np.array([1.0, 2.0]), B=np.eye(2))
        out = step(rhs, st, 0.0, 0.1, "rk4")
        assert np.array_equal(out.x, st.x)
        assert np.array_equal(out.B, st.B)
        assert out.t == pytest.approx(0.1)

    def test_rk4_scalar_exponential(self):
        rhs = lambda t, x, B: (-x, None)
        st = SolverState(t=0.0, x=np.array([1.0]))
        out = step(rhs, st, 0.0, 0.1, "rk4")
        assert out.x[0] == pytest.approx(0.904837418, abs=1e-7)

    def test_euler_scalar(self):
        rhs = lambda t, x, B: (-x, None)
        st = SolverState(t=0.0, x=np.array([1.0]))
        out = step(rhs, st, 0.0, 0.1, "euler")
        assert out.x[0] == 0.9

    def test_non_finite_raises(self):
        rhs = lambda t, x, B: (np.full_like(x, np.inf), None)
        st = SolverState(t=0.0, x=np.array([1.0]))
        with pytest.raises(FloatingPointError):
            step(rhs, st, 0.0, 0.1, "euler")

    def test_bad_step_size(self):
        rhs = lambda t, x, B: (-x, None)
        with pytest.raises(ValueError):
            step(rhs, SolverState(t=0.0, x=np.ones(1)), 0.0, -0.1, "rk4")


class TestIntegrate:
    def test_identity_stationary_at_solution(self):
        p = affine_problem(np.eye(3), np.ones(3))
        s = PowerSchedule(c0=0.1, c1=1.0, a=1.0)
        B0 = initial_inverse(p, np.ones(3), s.eps(0.0))
        st0 = SolverState(t=0.0, x=np.ones(3), B=B0)
        cfg = IntegratorConfig(method="rk4", step_h=0.01, horizon_T=5.0, record_every=50)
        traj = integrate(p, s, st0, cfg, xhat=np.ones(3))
        assert traj.termination == "horizon_reached"
        for st, d in traj.records:
            assert d.err_norm <= 1e-12

    def test_compliant_instance_stays_in_ball(self):
        entry, sched, B0, R = compliant("compliant-affine-2")
        st0 = SolverState(t=0.0, x=entry.default_x0, B=B0)
        cfg = IntegratorConfig(method="rk4", step_h=0.01, horizon_T=20.0,
                               record_every=20,
                               monitors=frozenset({"ball", "divergence"}))
        traj = integrate(entry.problem, sched, st0, cfg, xhat=entry.xhat, R=R)
        assert traj.termination == "horizon_reached"
        for _, d in traj.records:
            assert d.err_norm / d.eps < R

    def test_step_halving_fourth_order(self):
        p = affine_problem(np.diag([1.0, 2.0]), np.zeros(2))
        s = PowerSchedule(c0=0.5, c1=1.0, a=1.0)
        x0 = np.array([1.0, -1.0])
        B0 = initial_inverse(p, x0, s.eps(0.0))

        def endpoint(h):
            cfg = IntegratorConfig(method="rk4", step_h=h, horizon_T=2.0,
                                   record_every=10**9, monitors=frozenset())
            return integrate(p, s, SolverState(t=0.0, x=x0, B=B0), cfg)

        ref = endpoint(0.0025)
        err = {}
        for h in (0.08, 0.04):
            traj = endpoint(h)
            err[h] = np.linalg.norm(traj.final_state.x - ref.final_state.x)
        assert 13.0 <= err[0.08] / err[0.04] <= 19.0

    def test_ball_monitor_fires_with_final_record(self):
        # a rank-deficient problem pins the null-space error at its start
        # value while the envelope R*eps(t) shrinks, forcing an exit
        p = affine_problem(np.diag([1.0, 0.0]), np.zeros(2))
        s = PowerSchedule(c0=0.1, c1=1.0, a=1.0)
        x0 = np.array([0.0, 0.05])
        B0 = initial_inverse(p, x0, s.eps(0.0))
        st0 = SolverState(t=0.0, x=x0, B=B0)
        R = 1.0  # start inside: ||x0|| = 0.05 < R*eps(0) = 0.1
        cfg = IntegratorConfig(method="rk4", step_h=0.01, horizon_T=50.0,
                               record_every=10**9,
                               monitors=frozenset({"ball", "divergence"}))
        traj = integrate(p, s, st0, cfg, xhat=np.zeros(2), R=R)
        assert traj.termination == "ball_exit"
        st, d = traj.records[-1]
        assert d.err_norm >= R * d.eps  # final record at the triggering time
        assert 0.0 < st.t < 50.0

    def test_divergence_monitor(self):
        p = NonlinearProblem(dim=1, f=lambda x: -(x**2), jac=lambda x: -2.0 * np.diag(x))
        s = PowerSchedule(c0=10.0, c1=1.0, a=1.0)
        st0 = SolverState(t=0.0, x=np.array([1e6]), B=np.array([[1e6]]))
        cfg = IntegratorConfig(method="euler", step_h=0.5, horizon_T=100.0,
                               record_every=1)
        traj = integrate(p, s, st0, cfg)
        assert traj.termination in ("divergence", "numerical_error")
        assert traj.termination in TERMINATION_TAGS
        assert len(traj.records) >= 1

    def test_blowup_terminates_with_monotone_records(self):
        # exponential forward map overflows mid-run; the trajectory must
        # end with an event tag and strictly increasing record times
        import warnings

        from gnflow.schedule import frozen

        p = NonlinearProblem(dim=1, f=lambda x: -np.exp(x) + 1.0,
                             jac=lambda x: -np.diag(np.exp(x)))
        st0 = SolverState(t=0.0, x=np.array([2.0]), B=np.array([[1e3]]))
        cfg = IntegratorConfig(method="euler", step_h=1.0, horizon_T=50.0,
                               record_every=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            traj = integrate(p, frozen(0.1), st0, cfg)
        assert traj.termination in ("divergence", "numerical_error")
        times = [st.t for st, _ in traj.records]
        assert times == sorted(set(times))

    def test_record_grid(self):
        p = affine_problem(np.eye(2), np.zeros(2))
        s = PowerSchedule(c0=0.1, c1=1.0, a=1.0)
        st0 = SolverState(t=0.0, x=np.ones(2))
        cfg = IntegratorConfig(method="rk4", step_h=0.25, horizon_T=2.0, record_every=2)
        traj = integrate(p, s, st0, cfg)
        times = [st.t for st, _ in traj.records]
        assert times == [0.0, 0.5, 1.0, 1.5, 2.0]

    def test_determinism(self):
        entry, sched, B0, R = compliant("compliant-affine-4")
        st0 = SolverState(t=0.0, x=entry.default_x0, B=B0)
        cfg = IntegratorConfig(method="rk4", step_h=0.02, horizon_T=5.0, record_every=10)
        t1 = integrate(entry.problem, sched, st0, cfg, xhat=entry.xhat)
        t2 = integrate(entry.problem, sched, st0, cfg, xhat=entry.xhat)
        for (s1, d1), (s2, d2) in zip(t1.records, t2.records):
            assert np.array_equal(s1.x, s2.x)
            assert np.array_equal(s1.B, s2.B)
            assert d1.B_norm == d2.B_norm

    def test_nonlinear_autoconvolution_converges(self):
        entry = gallery.get_entry("autoconv-16")
        p, xhat = entry.problem, entry.xhat
        s = PowerSchedule(c0=0.1, c1=1.0, a=1.0)
        B0 = initial_inverse(p, entry.default_x0, s.eps(0.0))
        st0 = SolverState(t=0.0, x=entry.default_x0, B=B0)
        cfg = IntegratorConfig(method="rk4", step_h=0.01, horizon_T=30.0,
                               record_every=100)
        traj = integrate(p, s, st0, cfg, xhat=xhat)
        assert traj.termination == "horizon_reached"
        first = traj.records[0][1].err_norm
        last = traj.records[-1][1].err_norm
        assert last < 0.1 * first

    def test_nonlinear_renormalization_improves(self):
        entry = gallery.get_entry("feigenbaum-6")
        p, xhat = entry.problem, entry.xhat
        s = PowerSchedule(c0=0.1, c1=1.0, a=1.0)
        B0 = initial_inverse(p, entry.default_x0, s.eps(0.0))
        st0 = SolverState(t=0.0, x=entry.default_x0, B=B0)
        cfg = IntegratorConfig(method="rk4", step_h=0.01, horizon_T=30.0,
                               record_every=300)
        traj = integrate(p, s, st0, cfg, xhat=xhat)
        assert traj.termination == "horizon_reached"
        assert traj.records[-1][1].err_norm < traj.records[0][1].err_norm
        assert traj.records[-1][1].residual_norm < traj.records[0][1].residual_norm

    def test_finite_differences_track_the_analytic_jacobian(self):
        # central differences are exact on the bilinear autoconvolution up
        # to rounding, so a direct run with them ends where the analytic
        # run ends
        entry = gallery.get_entry("autoconv-16", noise=1e-3, noise_seed=3)
        p, xhat = entry.problem, entry.xhat
        p_fd = without_jacobian(p)
        s = PowerSchedule(c0=0.1, c1=1.0, a=1.0)
        cfg = IntegratorConfig(method="rk4", step_h=0.01, horizon_T=0.05,
                               record_every=10**9)
        st0 = SolverState(t=0.0, x=entry.default_x0)
        ends = [integrate(q, s, st0, cfg, xhat=xhat).final_state for q in (p, p_fd)]
        assert ends[0].t == ends[1].t == pytest.approx(0.05)
        x_ref = ends[0].x
        gap = np.max(np.abs(ends[1].x - x_ref))
        assert gap <= 1e-8 * (1.0 + np.max(np.abs(x_ref)))
        assert not np.array_equal(ends[1].x, x_ref)  # the FD path really ran

    def test_dimension_mismatch(self):
        p = affine_problem(np.eye(2), np.zeros(2))
        s = PowerSchedule(c0=0.1, c1=1.0, a=1.0)
        with pytest.raises(ValueError, match="dimension"):
            integrate(p, s, SolverState(t=0.0, x=np.ones(3)),
                      IntegratorConfig())

    def test_nonzero_start_time_rejected(self):
        p = affine_problem(np.eye(2), np.zeros(2))
        s = PowerSchedule(c0=0.1, c1=1.0, a=1.0)
        with pytest.raises(ValueError, match="t=0"):
            integrate(p, s, SolverState(t=1.0, x=np.ones(2)), IntegratorConfig())

    def test_ball_monitor_needs_inputs(self):
        p = affine_problem(np.eye(2), np.zeros(2))
        s = PowerSchedule(c0=0.1, c1=1.0, a=1.0)
        cfg = IntegratorConfig(monitors=frozenset({"ball"}))
        with pytest.raises(ValueError, match="ball"):
            integrate(p, s, SolverState(t=0.0, x=np.ones(2)), cfg)

    def test_non_positive_radius_rejected(self):
        p = affine_problem(np.eye(2), np.zeros(2))
        s = PowerSchedule(c0=0.1, c1=1.0, a=1.0)
        cfg = IntegratorConfig(monitors=frozenset({"ball"}))
        with pytest.raises(ValueError, match="R must be positive"):
            integrate(p, s, SolverState(t=0.0, x=np.ones(2)), cfg, xhat=np.zeros(2), R=0.0)


class TestMatchesStepByStepReference:
    @pytest.mark.parametrize("record_every", [1, 10])
    def test_coupled_certified_with_ball_monitor(self, record_every):
        entry, sched, B0, R = compliant("compliant-affine-8")
        st0 = SolverState(t=0.0, x=entry.default_x0, B=B0)
        cfg = IntegratorConfig(method="rk4", step_h=0.01, horizon_T=0.5,
                               record_every=record_every,
                               monitors=frozenset({"ball", "divergence"}))
        tag = assert_same_run(entry.problem, sched, st0, cfg, xhat=entry.xhat, R=R)
        assert tag == "horizon_reached"

    @pytest.mark.parametrize("record_every", [1, 10])
    @pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "fd"])
    def test_direct_autoconvolution(self, record_every, analytic):
        entry = gallery.get_entry("autoconv-16")
        p = entry.problem if analytic else without_jacobian(entry.problem)
        x0 = entry.default_x0 + 0.02 * np.random.default_rng(0).standard_normal(16)
        cfg = IntegratorConfig(method="rk4", step_h=0.01, horizon_T=0.3,
                               record_every=record_every)
        tag = assert_same_run(p, PowerSchedule(c0=0.1, c1=1.0), SolverState(t=0.0, x=x0),
                              cfg, xhat=entry.xhat)
        assert tag == "horizon_reached"

    @pytest.mark.parametrize("record_every", [1, 10])
    @pytest.mark.parametrize("coupled", [False, True], ids=["direct", "coupled"])
    def test_feigenbaum(self, record_every, coupled):
        entry = gallery.get_entry("feigenbaum-6")
        s = PowerSchedule(c0=0.1, c1=1.0)
        B0 = initial_inverse(entry.problem, entry.default_x0, s.eps(0.0)) if coupled else None
        st0 = SolverState(t=0.0, x=entry.default_x0, B=B0)
        cfg = IntegratorConfig(method="rk4", step_h=0.01, horizon_T=0.3,
                               record_every=record_every)
        tag = assert_same_run(entry.problem, s, st0, cfg, xhat=entry.xhat)
        assert tag == "horizon_reached"

    @pytest.mark.parametrize("coupled", [False, True], ids=["direct", "coupled"])
    @settings(max_examples=30)
    @given(p=problems(), s=schedules, h=log_uniform(-3.0, -1.0), steps=st.integers(1, 8),
           record_every=st.integers(1, 4), method=st.sampled_from(["rk4", "euler"]),
           monitors=st.sampled_from([(), ("divergence",), ("ball", "divergence")]),
           data=st.data())
    def test_drawn_problems(self, coupled, p, s, h, steps, record_every, method, monitors, data):
        xhat = p.known_solution
        x0 = data.draw(near(xhat))
        B0 = initial_inverse(p, x0, s.eps(0.0)) if coupled else None
        # a radius from half to four times the start's: some runs start outside the ball
        scale = data.draw(st.sampled_from([0.5, 2.0]) | st.floats(0.5, 4.0))
        R = max(np.linalg.norm(x0 - xhat) / s.eps(0.0), 1e-6) * scale
        cfg = IntegratorConfig(method=method, step_h=h, horizon_T=steps * h,
                               record_every=record_every, monitors=frozenset(monitors))
        assert_same_run(p, s, SolverState(t=0.0, x=x0, B=B0), cfg, xhat=xhat, R=R)

    @pytest.mark.parametrize("coupled", [False, True], ids=["direct", "coupled"])
    def test_forward_map_turning_infinite_mid_run(self, coupled):
        # F is finite at x0 and turns infinite once the iterate has moved
        # a few steps towards the root
        xhat = np.zeros(2)

        def f(x):
            y = x - xhat
            if x[0] < 0.8:
                y[0] = np.inf
            return y

        p = NonlinearProblem(dim=2, f=f, jac=lambda x: np.eye(2))
        s = PowerSchedule(c0=0.1, c1=1.0)
        x0 = np.ones(2)
        B0 = initial_inverse(p, x0, s.eps(0.0)) if coupled else None
        cfg = IntegratorConfig(method="rk4", step_h=0.05, horizon_T=2.0, record_every=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            tag = assert_same_run(p, s, SolverState(t=0.0, x=x0, B=B0), cfg, xhat=xhat)
            traj = integrate(p, s, SolverState(t=0.0, x=x0, B=B0), cfg, xhat=xhat)
        assert tag == "numerical_error"
        assert len(traj.records) > 2
        assert traj.final_state.x[0] >= 0.8


class TestStageCost:
    def test_coupled_run_builds_at_most_one_state_per_step(self, monkeypatch):
        entry, sched, B0, R = compliant("compliant-affine-8")
        st0 = SolverState(t=0.0, x=entry.default_x0, B=B0)
        built = []
        post_init = SolverState.__post_init__

        def counted(self):
            built.append(self.t)
            post_init(self)

        monkeypatch.setattr(SolverState, "__post_init__", counted)
        cfg = IntegratorConfig(method="rk4", step_h=0.01, horizon_T=0.2, record_every=1,
                               monitors=frozenset({"ball", "divergence"}))
        traj = integrate(entry.problem, sched, st0, cfg, xhat=entry.xhat, R=R)
        assert traj.termination == "horizon_reached"
        assert len(traj.records) == 21
        assert len(built) <= 20 + 1


class TestTracedCallGraph:
    """The call chain integrate -> step -> direct_rhs/coupled_rhs -> jacobian
    that the benchmark's per-layer trace attributes stage cost to."""

    def test_direct_autoconvolution(self, record_calls):
        entry = gallery.get_entry("autoconv-16")
        st0 = SolverState(t=0.0, x=entry.default_x0)
        cfg = IntegratorConfig(step_h=0.1, horizon_T=0.2, record_every=10**9)
        calls = record_calls(integrator.step, flow.direct_rhs, flow.coupled_rhs,
                             problem.jacobian)
        integrate(entry.problem, default_schedule(), st0, cfg)
        assert {name: len(seen) for name, seen in calls.items()} == {
            "step": 2, "direct_rhs": 8, "coupled_rhs": 0, "jacobian": 8}

    def test_coupled_makes_four_rhs_calls_per_step(self, record_calls):
        entry, sched, B0, R = compliant("compliant-affine-8")
        st0 = SolverState(t=0.0, x=entry.default_x0, B=B0)
        cfg = IntegratorConfig(step_h=0.01, horizon_T=0.1, record_every=5,
                               monitors=frozenset({"ball", "divergence"}))
        calls = record_calls(integrator.step, flow.direct_rhs, flow.coupled_rhs)
        integrate(entry.problem, sched, st0, cfg, xhat=entry.xhat, R=R)
        assert len(calls["step"]) == 10
        assert len(calls["coupled_rhs"]) == 4 * len(calls["step"])
        assert calls["direct_rhs"] == []


class TestFactorizationFailure:
    def test_ends_in_numerical_error_with_initial_record(self):
        # singular values 1e9, 1e9, 1e-9, 0: the shifted Gram operator
        # J*J + 1e-3 I is positive definite in exact arithmetic but not
        # in floating point, so the first Cholesky factorization fails
        rng = np.random.default_rng(0)
        U, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        V, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        A = U @ np.diag([1e9, 1e9, 1e-9, 0.0]) @ V.T
        p = NonlinearProblem(dim=4, f=lambda x: A @ x, jac=lambda x: A)
        s = PowerSchedule(c0=1e-3, c1=1.0)
        st0 = SolverState(t=0.0, x=np.ones(4))
        cfg = IntegratorConfig(method="rk4", step_h=0.01, horizon_T=0.1)
        with pytest.raises(FactorizationError):
            direct_rhs(p, s, st0.x, st0.x, 0.0)
        tag = assert_same_run(p, s, st0, cfg)
        assert tag == "numerical_error"
        traj = integrate(p, s, st0, cfg)
        assert len(traj.records) == 1
        assert traj.final_state is st0


class TestConvergenceOrder:
    def _scalar_flow(self):
        p = affine_problem(np.array([[1.0]]), np.zeros(1))
        s = PowerSchedule(c0=0.5, c1=1.0, a=1.0)
        x0 = np.array([1.0])
        B0 = initial_inverse(p, x0, s.eps(0.0))
        return p, s, SolverState(t=0.0, x=x0, B=B0)

    def test_rk4_ratio_window(self):
        p, s, st0 = self._scalar_flow()
        cfg = IntegratorConfig(method="rk4", step_h=0.1, horizon_T=1.0)
        errs = convergence_order(p, s, st0, cfg, [0.1, 0.05, 0.025])
        ratios = [errs[i][1] / errs[i + 1][1] for i in range(2)]
        assert all(14.0 <= r <= 18.0 for r in ratios), ratios

    def test_euler_ratio_window(self):
        p, s, st0 = self._scalar_flow()
        cfg = IntegratorConfig(method="euler", step_h=0.1, horizon_T=1.0)
        errs = convergence_order(p, s, st0, cfg, [0.1, 0.05, 0.025])
        ratios = [errs[i][1] / errs[i + 1][1] for i in range(2)]
        assert all(1.8 <= r <= 2.2 for r in ratios), ratios

    def test_zero_rhs_all_errors_vanish(self):
        # anchored at the root with frozen eps and the exact inverse, both
        # blocks of the right-hand side vanish identically
        from gnflow.schedule import frozen

        p = affine_problem(np.eye(2), np.ones(2))
        s = frozen(0.1)
        B0 = initial_inverse(p, np.ones(2), 0.1)
        st0 = SolverState(t=0.0, x=np.ones(2), B=B0)
        cfg = IntegratorConfig(method="rk4", step_h=0.1, horizon_T=1.0)
        errs = convergence_order(p, s, st0, cfg, [0.1, 0.05])
        for h, e in errs:
            assert e <= 1e-13

    def test_steps_must_descend(self):
        p, s, st0 = self._scalar_flow()
        cfg = IntegratorConfig(method="rk4", step_h=0.1, horizon_T=1.0)
        with pytest.raises(ValueError, match="sorted descending"):
            convergence_order(p, s, st0, cfg, [0.05, 0.1])
        with pytest.raises(ValueError, match="steps must be nonempty"):
            convergence_order(p, s, st0, cfg, [])


class TestConfigValidation:
    def test_unknown_method(self):
        with pytest.raises(ValueError):
            IntegratorConfig(method="heun")

    def test_unknown_monitor(self):
        with pytest.raises(ValueError):
            IntegratorConfig(monitors=frozenset({"teleport"}))

    def test_bad_record_every(self):
        with pytest.raises(ValueError, match="record_every must be >= 1"):
            IntegratorConfig(record_every=0)
        with pytest.raises(ValueError, match="record_every must be an integer, got 2.5"):
            IntegratorConfig(record_every=2.5)
