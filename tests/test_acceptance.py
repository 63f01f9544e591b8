"""Acceptance criteria, one test per criterion, each printing a verdict line.

Criteria 2-4 share the integrated runs of the certified instance suite
(session fixture) since they constrain the same trajectories.
"""

import time

import numpy as np
import pytest
from oracles import affine_problem, planted_source, random_spd_path

from gnflow import cli, gallery, theory
from gnflow.flow import SolverState, coupled_rhs, direct_rhs
from gnflow.hilbert import op_norm
from gnflow.integrator import IntegratorConfig, convergence_order, integrate
from gnflow.run import sweep, write_sweep_csv
from gnflow.schedule import PowerSchedule

HORIZON = 50.0


def verdict(num, ok, detail):
    print(f"\nACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def compliant_runs():
    """Certified instances with their certificates and integrated runs."""
    out = []
    start = time.perf_counter()
    for label, entry, sched, B0, R in gallery.compliant_suite():
        cert, _ = theory.certify_with_canonical_R(
            entry.problem, entry.xhat, entry.default_x0, sched, B0)
        assert cert.overall, f"{label} must certify"
        assert sched.eps(HORIZON) >= 1e-3, "horizon must stay in the stable range"
        cfg = IntegratorConfig(method="rk4", step_h=0.01, horizon_T=HORIZON,
                               record_every=10,
                               monitors=frozenset({"ball", "divergence"}))
        st0 = SolverState(t=0.0, x=entry.default_x0, B=B0)
        traj = integrate(entry.problem, sched, st0, cfg, xhat=entry.xhat, R=R)
        out.append((label, entry, sched, B0, R, cert, traj))
    elapsed = time.perf_counter() - start
    return out, elapsed


def test_01_equivalence_oracle():
    # with B the exact regularized inverse, the coupled velocity matches
    # the direct one and the inverse track is stationary
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    s = PowerSchedule(c0=0.5, c1=1.0, a=1.0)
    worst_x, worst_B = 0.0, 0.0
    for _ in range(20):
        n = int(rng.integers(2, 11))
        A = rng.standard_normal((n, n))
        xhat = rng.standard_normal(n)
        p = affine_problem(A, xhat)
        x0 = rng.standard_normal(n)
        x = rng.standard_normal(n)
        t = float(rng.uniform(0.0, 3.0))
        eps = s.eps(t)
        B = np.linalg.inv(A.T @ A + eps * np.eye(n))
        x_dot, B_dot = coupled_rhs(p, s, x0, x, B, t)
        ref = direct_rhs(p, s, x0, x, t)
        worst_x = max(worst_x,
                      np.linalg.norm(x_dot - ref) / (1 + np.linalg.norm(ref)))
        worst_B = max(worst_B, op_norm(B_dot))
    elapsed = time.perf_counter() - start
    ok = worst_x <= 1e-10 and worst_B <= 1e-10 and elapsed < 5.0
    verdict(1, ok, f"equivalence of the two flows at the exact inverse: "
                   f"max dx gap {worst_x:.2e}, max dB {worst_B:.2e}, {elapsed:.1f}s")


def test_02_error_inside_shrinking_ball(compliant_runs):
    runs, elapsed = compliant_runs
    assert len(runs) >= 3
    dims = {entry.problem.dim for _, entry, *_ in runs}
    assert {2, 4, 8} <= dims
    worst = 0.0
    for label, entry, sched, B0, R, cert, traj in runs:
        assert traj.termination == "horizon_reached", label
        for _, d in traj.records:
            worst = max(worst, d.err_norm / (R * d.eps))
    ok = worst < 1.0 and elapsed < 60.0
    verdict(2, ok, f"{len(runs)} certified runs stay inside R*eps(t): "
                   f"max ratio {worst:.3e}, integration {elapsed:.1f}s")


def test_03_inverse_track_norm_bound(compliant_runs):
    runs, _ = compliant_runs
    worst = -np.inf
    for label, entry, sched, B0, R, cert, traj in runs:
        tol = 1e-6 / sched.eps(HORIZON)
        for _, d in traj.records:
            worst = max(worst, d.B_norm - (1.0 / d.eps + cert.B0_norm + tol))
    ok = worst <= 0.0
    verdict(3, ok, f"||B(t)|| <= 1/eps(t) + ||B(0)|| + tol on all records "
                   f"(max slack violation {worst:.2e})")


def test_04_mismatch_bounded_by_contraction_constant(compliant_runs):
    runs, _ = compliant_runs
    worst = -np.inf
    for label, entry, sched, B0, R, cert, traj in runs:
        for _, d in traj.records:
            worst = max(worst, d.lambda_norm - (cert.k + 1e-6))
    ok = worst <= 0.0
    verdict(4, ok, f"||I - B(t)(F'(xh)*F'(xh)+eps I)|| <= k + 1e-6 "
                   f"(max excess {worst:.2e})")


def test_05_operator_gronwall():
    start = time.perf_counter()
    gamma0 = 1.3
    sat = theory.gronwall_check(
        A_path=lambda t: gamma0 * np.eye(4),
        G_path=lambda t: np.zeros((4, 4)),
        V0=np.eye(4),
        gamma=lambda t: gamma0,
        T=2.0, h=0.01)
    worst = -np.inf
    for seed in range(20):
        A_path, G_path, V0, gamma, T = random_spd_path(seed)
        worst = max(worst, theory.gronwall_check(A_path, G_path, V0, gamma, T=T, h=0.01))
    elapsed = time.perf_counter() - start
    ok = abs(sat) <= 1e-8 and worst <= 1e-6 and elapsed < 10.0
    verdict(5, ok, f"operator Gronwall bound: saturation |{sat:.1e}| <= 1e-8, "
                   f"20 random paths max violation {worst:.1e}, {elapsed:.1f}s")


def test_06_riccati_envelope(compliant_runs):
    ts = np.linspace(0.0, 10.0, 500)
    scalar = theory.riccati_envelope_check(
        [(float(t), 0.5 * np.exp(-t)) for t in ts],
        lambda t: np.exp(t / 2.0))
    runs, _ = compliant_runs
    traj_ok = True
    for label, entry, sched, B0, R, cert, traj in runs:
        samples = [(st.t, d.err_norm) for st, d in traj.records]
        traj_ok &= theory.riccati_envelope_check(
            samples, lambda t: cert.lam / sched.eps(t))
    ok = scalar and traj_ok
    verdict(6, ok, "riccati envelope: scalar closed form and certified "
                   "trajectories with mu = lambda/eps")


def test_07_schedule_decay_certificate():
    rng = np.random.default_rng(11)
    ts = np.linspace(0.0, 1e4, 1000)
    worst = -np.inf
    for _ in range(50):
        s = PowerSchedule(c0=float(rng.uniform(0.01, 10.0)),
                          c1=float(rng.uniform(0.05, 20.0)),
                          a=float(rng.uniform(1e-6, 1.0)))
        b = s.b_constant()
        # |eps'(t)| = a c0 (c1+t)^(-a-1), the power law's derivative
        excess = max(s.a * s.c0 * (s.c1 + t) ** (-s.a - 1.0) - b * s.eps(t) ** 2
                     for t in ts)
        worst = max(worst, excess)
    ok = worst <= 1e-14
    verdict(7, ok, f"|eps'(t)| <= b eps(t)^2 for 50 random schedules on a "
                   f"1000-point grid (max excess {worst:.1e})")


def test_08_discretization_order():
    start = time.perf_counter()
    p = affine_problem(np.diag([1.0, 2.0, 0.5]), np.zeros(3))
    s = PowerSchedule(c0=0.5, c1=1.0, a=1.0)
    x0 = np.array([1.0, -1.0, 0.5])
    from gnflow.flow import initial_inverse
    B0 = initial_inverse(p, x0, s.eps(0.0))
    st0 = SolverState(t=0.0, x=x0, B=B0)
    steps = [0.1, 0.05, 0.025]
    cfg4 = IntegratorConfig(method="rk4", step_h=0.1, horizon_T=1.0)
    errs4 = convergence_order(p, s, st0, cfg4, steps)
    r4 = [errs4[i][1] / errs4[i + 1][1] for i in range(2)]
    cfg1 = IntegratorConfig(method="euler", step_h=0.1, horizon_T=1.0)
    errs1 = convergence_order(p, s, st0, cfg1, steps)
    r1 = [errs1[i][1] / errs1[i + 1][1] for i in range(2)]
    elapsed = time.perf_counter() - start
    ok = (all(14.0 <= r <= 18.0 for r in r4)
          and all(1.8 <= r <= 2.2 for r in r1)
          and elapsed < 10.0)
    verdict(8, ok, f"step-halving ratios rk4 {[f'{r:.1f}' for r in r4]} in [14,18], "
                   f"euler {[f'{r:.2f}' for r in r1]} in [1.8,2.2], {elapsed:.1f}s")


def test_09_source_condition_recovery():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(10):
        p, xhat, x0, v = planted_source(rng)
        w, res = theory.solve_source(p, xhat, x0)
        worst = max(worst, np.linalg.norm(w - v) / np.linalg.norm(v))
    # orthogonal offset must fail the residual test
    A = np.diag([1.0, 1.0, 0.0])
    p = affine_problem(A, np.zeros(3))
    x0 = np.array([0.0, 0.0, 0.3])
    _, res = theory.solve_source(p, np.zeros(3), x0)
    fails = res > theory.SOURCE_TOL * np.linalg.norm(x0)
    ok = worst <= 1e-6 and fails
    verdict(9, ok, f"source element recovered to {worst:.1e} <= 1e-6; "
                   f"out-of-range offset rejected")


def test_10_eps0_range_sweep(tmp_path):
    base = cli.RunConfig(problem="compliant-affine-8", horizon_T=10.0,
                         record_every=100)
    rows = sweep(base, "eps0", [0.001, 0.01, 0.1])
    out = tmp_path / "sweep.csv"
    write_sweep_csv(out, rows)
    in_range_ok = all(r["termination"] == "horizon_reached" for r in rows)
    # outside the documented range: recorded, not asserted
    extra = sweep(base, "eps0", [1.0])
    recorded = len(extra) == 1 and extra[0]["termination"] != ""
    ok = in_range_ok and out.exists() and recorded
    verdict(10, ok, f"eps(0) sweep over the documented range all reached the "
                    f"horizon; out-of-range outcome recorded "
                    f"({extra[0]['termination']})")


def test_11_bit_identical_reruns(tmp_path):
    argv = lambda i: [
        "run", "--problem", "compliant-affine-8", "--seed", "7",
        "--horizon-T", "3.0",
        "--out-trajectory", str(tmp_path / f"t{i}.csv"),
        "--out-summary", str(tmp_path / f"s{i}.txt"),
    ]
    code0 = cli.main(argv(0))
    code1 = cli.main(argv(1))
    same = (tmp_path / "t0.csv").read_bytes() == (tmp_path / "t1.csv").read_bytes()
    ok = code0 == 0 and code1 == 0 and same
    verdict(11, ok, "repeated runs with identical config and seed emit "
                    "bit-identical trajectory CSV")
