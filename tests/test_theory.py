import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from oracles import (
    affine_problem,
    compliant,
    gronwall_reference,
    identity_problem,
    lemma_battery_path,
    planted_source,
    random_spd_path,
    seeds,
)

from gnflow import flow, gallery, hilbert, problem, theory
from gnflow.flow import SolverState, initial_inverse, mismatch_operator
from gnflow.hilbert import op_norm
from gnflow.integrator import IntegratorConfig, integrate
from gnflow.problem import BallBounds, estimate_bounds
from gnflow.schedule import PowerSchedule, frozen


def hand_bounds(xhat, N1, N2):
    return BallBounds(center=xhat, radius=1.0, N1=N1, N2=N2, samples=0)


class TestCertifyConstants:
    # PowerSchedule(c0=20, c1=200): eps0 = 0.1, b = 0.05
    schedule = PowerSchedule(c0=20.0, c1=200.0)

    def test_identity_with_exact_inverse(self):
        p, xhat = identity_problem()
        eps0 = 0.1
        B0 = np.eye(3) / (1.0 + eps0)
        N1, N2, R, b = 1.1, 0.5, 0.2, 0.05
        cert = theory.certify(p, xhat, xhat, self.schedule, B0, hand_bounds(xhat, N1, N2), R)
        assert cert.Lambda0_norm == pytest.approx(0.0, abs=1e-12)
        expected = 2 * N1 * N2 * R + b + eps0 / (1.0 + eps0)
        assert cert.k == pytest.approx(expected, abs=1e-10)

    def test_zero_inverse_gives_unit_mismatch(self):
        p, xhat = identity_problem()
        cert = theory.certify(p, xhat, xhat, self.schedule, np.zeros((3, 3)),
                              hand_bounds(xhat, 1.0, 1.0), 1.0)
        assert cert.Lambda0_norm == pytest.approx(1.0, rel=1e-9)

    def test_formula_recomputation(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((4, 4))
        xhat = rng.standard_normal(4)
        p = affine_problem(A, xhat)
        eps0 = self.schedule.eps(0.0)
        B0 = initial_inverse(p, xhat, eps0)
        N1, N2, R, b = 2.0, 0.3, 0.5, 0.05
        cert = theory.certify(p, xhat, xhat, self.schedule, B0, hand_bounds(xhat, N1, N2), R)
        assert cert.B0_norm == op_norm(B0)
        assert cert.Lambda0_norm == op_norm(mismatch_operator(p, xhat, B0, eps0))
        expected = 2.0 * N1 * N2 * R + b + eps0 * op_norm(B0) + cert.Lambda0_norm
        assert cert.k == pytest.approx(expected, abs=1e-12)

    def test_zero_decay_constant_rejected(self):
        p, xhat = identity_problem()
        s = frozen(0.1)  # b = 0
        B0 = initial_inverse(p, xhat, 0.1)
        with pytest.raises(ValueError, match="b must be positive"):
            theory.certify(p, xhat, xhat, s, B0, hand_bounds(xhat, 1.0, 1.0), 1.0)


class TestCanonicalR:
    def test_hand_computed_value(self):
        R = theory.canonical_R(N1=1.0, N2=1.0, b=0.01, eps0=0.01,
                               B0_norm=1.0, Lambda0_norm=0.01)
        # (1 - 0.01 - 0.01 - 0.01 - 0.0001) / (5 + 0.03) = 0.9699 / 5.03
        assert R == pytest.approx(0.9699 / 5.03, abs=1e-12)
        assert R == pytest.approx(0.19283, abs=1e-5)

    def test_unsatisfiable_constants_raise(self):
        with pytest.raises(ValueError, match="too large"):
            theory.canonical_R(N1=1.0, N2=1.0, b=0.001, eps0=0.001,
                               B0_norm=0.1, Lambda0_norm=1.0)

    def test_halves_when_bounds_double(self):
        kw = dict(b=0.01, eps0=0.01, B0_norm=1.0, Lambda0_norm=0.01)
        R1 = theory.canonical_R(N1=1.0, N2=1.0, **kw)
        R2 = theory.canonical_R(N1=2.0, N2=1.0, **kw)
        assert R2 == pytest.approx(R1 / 2.0, rel=1e-14)

    def test_zero_bounds_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            theory.canonical_R(N1=0.0, N2=1.0, b=0.01, eps0=0.01,
                               B0_norm=1.0, Lambda0_norm=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0], ids=repr)
    @pytest.mark.parametrize("name", ["B0_norm", "Lambda0_norm"])
    def test_bad_norms_rejected(self, name, value):
        # a NaN norm once passed the numerator test and came back as R = nan
        kw = dict(N1=1.0, N2=1.0, b=0.01, eps0=0.01, B0_norm=1.0, Lambda0_norm=0.01)
        kw[name] = value
        with pytest.raises(ValueError,
                           match=f"^{name} must be nonnegative and finite, got {value}$"):
            theory.canonical_R(**kw)


class TestSolveSource:
    def test_trivial_when_start_at_solution(self):
        p, xhat = identity_problem()
        w, res = theory.solve_source(p, xhat, xhat)
        assert np.array_equal(w, np.zeros(3))
        assert res == 0.0

    def test_constructive_recovery_full_rank(self):
        # x0 = xhat - (A*A) v with controlled singular values recovers v
        rng = np.random.default_rng(1)
        for _ in range(10):
            p, xhat, x0, v = planted_source(rng)
            w, res = theory.solve_source(p, xhat, x0)
            assert np.linalg.norm(w - v) <= 1e-6 * np.linalg.norm(v)
            assert res <= 1e-8 * np.linalg.norm(xhat - x0)

    def test_null_space_offset_fails(self):
        A = np.diag([1.0, 1.0, 0.0])
        xhat = np.zeros(3)
        p = affine_problem(A, xhat)
        x0 = xhat - np.array([0.0, 0.0, 0.3])  # offset orthogonal to range
        w, res = theory.solve_source(p, xhat, x0)
        assert res == pytest.approx(0.3, rel=1e-12)
        assert res > theory.SOURCE_TOL * np.linalg.norm(xhat - x0)

    def test_minimum_norm_on_rank_deficient(self):
        A = np.diag([1.0, 1.0, 0.0])
        xhat = np.zeros(3)
        p = affine_problem(A, xhat)
        v = np.array([0.5, -0.25, 0.0])
        x0 = xhat - A.T @ A @ v
        w, res = theory.solve_source(p, xhat, x0)
        assert np.allclose(w, v, atol=1e-10)  # no null-space component
        assert res <= 1e-12


class TestCertify:
    def _bounds(self, p, xhat, radius=1.0):
        return estimate_bounds(p, xhat, radius, samples=32, seed=0)

    def test_anchored_identity_passes(self):
        p, xhat = identity_problem()
        s = PowerSchedule(c0=20.0, c1=200.0, a=1.0)  # eps0=0.1, b=0.05
        B0 = initial_inverse(p, xhat, s.eps(0.0))
        cert, _ = theory.certify_with_canonical_R(p, xhat, xhat, s, B0)
        assert cert.w_norm == 0.0
        assert cert.checks["source_norm"] is True  # vacuous at w = 0
        assert cert.checks["initial_offset"] is True  # offset is zero
        assert cert.overall is True

    def test_distant_start_fails_initial_offset(self):
        entry, sched, B0, R = compliant("compliant-quadratic-4")
        p, xhat = entry.problem, entry.xhat
        far = xhat + 50.0 * (entry.default_x0 - xhat) / np.linalg.norm(entry.default_x0 - xhat)
        bounds = estimate_bounds(p, xhat, radius=1.0, samples=32, seed=0)
        cert = theory.certify(p, xhat, far, sched, B0, bounds, R)
        assert cert.checks["initial_offset"] is False
        assert cert.overall is False

    def test_large_source_norm_fails_in_isolation(self):
        # components of w on tiny eigenvalues of A*A blow up ||w|| while
        # the offset ||A*A w|| stays moderate: only the source-norm check
        # should trip
        A = np.diag([1.0, 0.3])
        xhat = np.zeros(2)
        p = affine_problem(A, xhat)
        s = PowerSchedule(c0=20.0, c1=200.0, a=1.0)
        w = np.array([0.0, 4e5])
        x0 = xhat - A.T @ A @ w  # big ||w||, offset along the weak direction
        B0 = initial_inverse(p, x0, s.eps(0.0))
        cert, _ = theory.certify_with_canonical_R(p, xhat, x0, s, B0)
        assert cert.checks["source_norm"] is False
        assert cert.checks["initial_offset"] is True
        assert cert.checks["source_residual"] is True
        assert cert.overall is False

    def test_degenerate_margin_records_infinite_rate(self):
        # b*eps0 = 1 for the c1=1 family: the contraction margin is gone,
        # lambda is undefined and every rate-based check fails honestly
        p, xhat = identity_problem()
        s = PowerSchedule(c0=0.1, c1=1.0, a=1.0)
        B0 = initial_inverse(p, xhat, s.eps(0.0))
        bounds = self._bounds(p, xhat)
        cert = theory.certify(p, xhat, xhat + 0.01, s, B0, bounds, R=1.0)
        assert cert.lam == np.inf
        assert cert.checks["contraction"] is False
        assert cert.checks["radius"] is False
        assert cert.checks["source_norm"] is False
        assert cert.checks["initial_offset"] is False
        assert cert.overall is False

    def test_compliant_instance_overall(self):
        entry, sched, B0, R = compliant("compliant-affine-8")
        cert, _ = theory.certify_with_canonical_R(
            entry.problem, entry.xhat, entry.default_x0, sched, B0)
        assert cert.overall is True

    def test_certificate_k_formula_invariant(self):
        entry, sched, B0, R = compliant("compliant-affine-4")
        cert, _ = theory.certify_with_canonical_R(
            entry.problem, entry.xhat, entry.default_x0, sched, B0)
        recomputed = (2.0 * cert.N1 * cert.N2 * cert.R + cert.b
                      + cert.eps0 * cert.B0_norm + cert.Lambda0_norm)
        assert cert.k == recomputed
        assert cert.overall == all(cert.checks.values())

    def test_lambda_consistency_with_checks(self):
        # the recorded lambda must satisfy exactly the inequalities the
        # checks claim, recomputed here from certificate fields
        for label, entry, sched, B0, R in gallery.compliant_suite():
            cert, _ = theory.certify_with_canonical_R(
                entry.problem, entry.xhat, entry.default_x0, sched, B0)
            margin = 1.0 - cert.k - cert.b * cert.eps0
            lam = 3.0 * cert.N1 * cert.N2 * (1.0 + cert.eps0 * cert.B0_norm) / margin
            assert cert.lam == pytest.approx(lam, rel=1e-14)
            if cert.w_norm > 0:
                rhs = margin / (2.0 * (cert.k + 2.0 + cert.eps0 * cert.B0_norm) * cert.w_norm)
                assert cert.checks["source_norm"] == (lam < rhs)
            offset = np.linalg.norm(entry.default_x0 - entry.xhat)
            assert cert.checks["initial_offset"] == (lam < cert.eps0 / offset)
            assert cert.checks["radius"] == (1.0 / cert.R <= lam)


class TestContractionReductionEquivalence:
    def test_agreement_on_random_constants(self):
        # With the canonical radius, the contraction check reduces to the
        # positivity of the radius numerator. The expanded inequality
        #   b + L0 + b*e*(1+B0) + e*B0*(e*B0 + L0 + e) < 1
        # agrees except in a thin band |1 - (b + eB + L0 + be)| <= 2*e*eB
        # where its extra second-order terms flip the verdict; draws in
        # the band are rejected.
        rng = np.random.default_rng(2)
        tested = 0
        while tested < 200:
            b = float(rng.uniform(0.001, 0.6))
            eps0 = float(rng.uniform(0.001, 0.3))
            b0 = float(rng.uniform(0.1, 3.0))
            lam0 = float(rng.uniform(0.0, 0.8))
            n1 = float(rng.uniform(0.1, 3.0))
            n2 = float(rng.uniform(0.01, 2.0))
            eB = eps0 * b0
            e1 = b + eB + lam0 + b * eps0
            if abs(1.0 - e1) <= 2.0 * eps0 * eB:
                continue
            tested += 1
            expanded = (b + lam0 + b * eps0 * (1.0 + b0)
                        + eB * (eB + lam0 + eps0)) < 1.0
            try:
                R = theory.canonical_R(n1, n2, b, eps0, b0, lam0)
            except ValueError:
                contraction = False
            else:
                k = 2.0 * n1 * n2 * R + b + eB + lam0
                contraction = k + b * eps0 < 1.0
            assert contraction == expanded, (b, eps0, b0, lam0)


class TestRiccatiEnvelope:
    def test_zero_solution(self):
        samples = [(t, 0.0) for t in np.linspace(0, 10, 50)]
        assert theory.riccati_envelope_check(samples, lambda t: 1.0 + t)

    def test_scalar_closed_form(self):
        # v' = -v from 0.5 against mu = e^{t/2}: 0.5 e^{-t} < e^{-t/2}
        ts = np.linspace(0.0, 10.0, 200)
        samples = [(float(t), 0.5 * np.exp(-t)) for t in ts]
        assert theory.riccati_envelope_check(samples, lambda t: np.exp(t / 2.0))

    def test_violation_detected(self):
        samples = [(0.0, 0.5), (1.0, 2.0)]
        assert not theory.riccati_envelope_check(samples, lambda t: 1.0)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            theory.riccati_envelope_check([], lambda t: 1.0)

    @pytest.mark.parametrize("v", [math.nan, math.inf, -1.0])
    def test_bad_v_rejected(self, v):
        # a NaN or infinite v compared False against 1/mu and gave a verdict
        samples = [(0.0, 0.1), (0.5, v)]
        with pytest.raises(ValueError, match=rf"^v\(0\.5\) must be nonnegative and finite, "
                                             rf"got {v}$"):
            theory.riccati_envelope_check(samples, lambda t: 1.0)

    def test_compliant_trajectory_with_certificate_rate(self):
        entry, sched, B0, R = compliant("compliant-quadratic-4")
        cert, _ = theory.certify_with_canonical_R(
            entry.problem, entry.xhat, entry.default_x0, sched, B0)
        st0 = SolverState(t=0.0, x=entry.default_x0, B=B0)
        cfg = IntegratorConfig(method="rk4", step_h=0.01, horizon_T=30.0, record_every=25)
        traj = integrate(entry.problem, sched, st0, cfg, xhat=entry.xhat)
        samples = [(st.t, d.err_norm) for st, d in traj.records]
        assert theory.riccati_envelope_check(samples, lambda t: cert.lam / sched.eps(t))


class TestGronwall:
    def test_constant_coefficients_saturate(self):
        # A = gamma*I, G = 0: ||V(t)|| = e^{-gamma t} ||V0|| meets the
        # bound with equality up to integrator precision
        gamma0 = 1.3
        viol = theory.gronwall_check(
            A_path=lambda t: gamma0 * np.eye(4),
            G_path=lambda t: np.zeros((4, 4)),
            V0=np.eye(4),
            gamma=lambda t: gamma0,
            T=2.0,
            h=0.01,
        )
        assert abs(viol) <= 1e-8

    def test_scalar_forcing_saturates(self):
        # 1x1 case with positive forcing also meets the bound exactly
        viol = theory.gronwall_check(
            A_path=lambda t: np.array([[0.8]]),
            G_path=lambda t: np.array([[0.5 + 0.1 * np.sin(t)]]),
            V0=np.array([[1.0]]),
            gamma=lambda t: 0.8,
            T=2.0,
            h=0.01,
        )
        assert abs(viol) <= 1e-6

    def test_zero_initial_and_forcing(self):
        viol = theory.gronwall_check(
            A_path=lambda t: np.eye(3),
            G_path=lambda t: np.zeros((3, 3)),
            V0=np.zeros((3, 3)),
            gamma=lambda t: 1.0,
            T=1.0,
        )
        assert viol == 0.0

    def test_coefficients_evaluated_once_per_time(self):
        # RK4's two mid-stages share a time, and a step's end is the next
        # step's start and its coercivity check
        times = {"A": [], "G": [], "gamma": []}

        def record(name, value):
            def path(t):
                times[name].append(t)
                return value
            return path

        theory.gronwall_check(
            record("A", 1.3 * np.eye(3)), record("G", 0.1 * np.eye(3)), np.eye(3),
            gamma=record("gamma", 1.3), T=1.0, h=0.1)
        for name, seen in times.items():
            assert len(seen) == len(set(seen)), name
            assert len(seen) <= 3 * 10 + 1, name

    @pytest.mark.parametrize("path", range(22))
    def test_matches_per_step_norm_reference(self, path):
        A_path, G_path, V0, gamma, T = lemma_battery_path(path)
        expected = gronwall_reference(A_path, G_path, V0, gamma, T, h=0.01)
        assert theory.gronwall_check(A_path, G_path, V0, gamma, T=T, h=0.01) == expected

    @settings(max_examples=5)
    @given(seed=seeds)
    def test_random_spd_path_within_bound(self, seed):
        A_path, G_path, V0, gamma, T = random_spd_path(seed)
        violation = theory.gronwall_check(A_path, G_path, V0, gamma, T=T, h=0.01)
        assert violation == gronwall_reference(A_path, G_path, V0, gamma, T, h=0.01)
        assert violation <= 1e-6

    def test_coercivity_failure_names_time(self):
        A_path = lambda t: (1.0 - t) * np.eye(2)  # loses coercivity past t=0.5
        with pytest.raises(ValueError, match=r"t=0\.6"):
            theory.gronwall_check(
                A_path, lambda t: np.zeros((2, 2)), np.eye(2),
                gamma=lambda t: 0.5, T=1.0, h=0.1)

    def test_nonpositive_gamma_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            theory.gronwall_check(
                lambda t: np.eye(2), lambda t: np.zeros((2, 2)), np.eye(2),
                gamma=lambda t: 0.0, T=1.0, h=0.1)

    def test_gamma_checked_before_coercivity(self):
        # from t=0.6 on gamma is negative and A fails it too: gamma is named
        late = lambda t: t > 0.55
        with pytest.raises(ValueError,
                           match=r"^gamma\(0\.60*1?\) must be positive and finite, got -1\.0$"):
            theory.gronwall_check(
                lambda t: -2.0 * np.eye(2) if late(t) else np.eye(2),
                lambda t: np.zeros((2, 2)), np.eye(2),
                gamma=lambda t: -1.0 if late(t) else 0.5, T=1.0, h=0.1)

    @pytest.mark.parametrize("bad", [math.inf, math.nan], ids=repr)
    def test_non_finite_gamma_named(self, bad):
        # an infinite gamma passed a bare "> 0" test and overflowed the
        # integrated exp(int gamma): FloatingPointError, gamma not named
        with pytest.raises(ValueError,
                           match=rf"^gamma\(0\.60*1?\) must be positive and finite, got {bad}$"):
            theory.gronwall_check(
                lambda t: np.eye(2), lambda t: np.zeros((2, 2)), np.eye(2),
                gamma=lambda t: bad if t > 0.55 else 0.5, T=1.0, h=0.1)

    def test_first_failing_time_named(self):
        # coercivity fails at t=0.2 and at every later step time
        with pytest.raises(ValueError, match=r"^coercivity fails at t=0\.2: smallest "
                                             r"symmetric eigenvalue -1\.000000e\+00 < gamma"):
            theory.gronwall_check(
                lambda t: -np.eye(2) if t > 0.15 else np.eye(2),
                lambda t: np.zeros((2, 2)), np.eye(2),
                gamma=lambda t: 0.5, T=1.0, h=0.1)

    def test_step_failure_ends_check_before_later_coercivity_failure(self):
        # forcing of 1e308 from t=0.3 overflows the third step; coercivity
        # would fail only from t=0.8
        with pytest.raises(FloatingPointError), np.errstate(over="ignore", invalid="ignore"):
            theory.gronwall_check(
                lambda t: -np.eye(2) if t > 0.75 else np.eye(2),
                lambda t: 1e308 * np.eye(2) if t > 0.25 else np.zeros((2, 2)), np.eye(2),
                gamma=lambda t: 0.5, T=1.0, h=0.1)

    @staticmethod
    def _bad_after(t0, good, bad, seen):
        """A path that returns ``good`` up to ``t0`` and ``bad`` after it,
        appending to ``seen`` each time at which it returns ``bad``."""
        def path(t):
            if t <= t0:
                return good
            seen.append(t)
            return bad
        return path

    def test_non_finite_A_at_a_later_time_named(self):
        seen = []
        A_path = self._bad_after(0.57, np.eye(2), np.array([[1.0, np.nan], [0.0, 1.0]]), seen)
        with pytest.raises(ValueError) as info:
            theory.gronwall_check(A_path, lambda t: np.zeros((2, 2)), np.eye(2),
                                  gamma=lambda t: 0.5, T=1.0, h=0.1)
        assert str(info.value) == (f"A_path(t) returned a non-finite entry at index (0, 1) "
                                   f"at t={seen[0]}")

    def test_wrong_G_shape_at_one_time_named(self):
        seen = []
        wrong_once = self._bad_after(0.33, np.zeros((2, 2)), np.zeros((2, 3)), seen)
        G_path = lambda t: wrong_once(t) if t < 0.37 else np.zeros((2, 2))
        with pytest.raises(ValueError) as info:
            theory.gronwall_check(lambda t: np.eye(2), G_path, np.eye(2),
                                  gamma=lambda t: 0.5, T=1.0, h=0.1)
        assert len(seen) == 1
        assert str(info.value) == (f"G_path(t) returned shape (2, 3) at t={seen[0]}, "
                                   f"expected (2, 2)")

    @pytest.mark.parametrize("bad", [np.eye(3), np.ones(2), np.float64(1.0)],
                             ids=["larger", "vector", "scalar"])
    def test_ragged_shapes_named(self, bad):
        seen = []
        A_path = self._bad_after(0.42, np.eye(2), bad, seen)
        with pytest.raises(ValueError) as info:
            theory.gronwall_check(A_path, lambda t: np.zeros((2, 2)), np.eye(2),
                                  gamma=lambda t: 0.5, T=1.0, h=0.1)
        assert str(info.value) == (f"A_path(t) returned shape {np.shape(bad)} at "
                                   f"t={seen[0]}, expected (2, 2)")

    def test_paths_checked_before_the_first_step(self):
        # an overflowing step at t=0.3 would end the check; the bad A at
        # t=0.9 is found first
        with pytest.raises(ValueError, match=r"^A_path\(t\) returned a non-finite entry"), \
                np.errstate(over="ignore", invalid="ignore"):
            theory.gronwall_check(
                lambda t: np.full((2, 2), np.inf) if t > 0.85 else np.eye(2),
                lambda t: 1e308 * np.eye(2) if t > 0.25 else np.zeros((2, 2)), np.eye(2),
                gamma=lambda t: 0.5, T=1.0, h=0.1)

    def test_coercivity_in_one_eigvalsh_call(self, monkeypatch):
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kw):
            shapes.append(np.shape(a))
            return eigvalsh(a, *args, **kw)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        theory.gronwall_check(lambda t: 1.3 * np.eye(3), lambda t: np.zeros((3, 3)),
                              np.eye(3), gamma=lambda t: 1.3, T=1.0, h=0.1)
        assert shapes == [(11, 3, 3)]  # the step times 0, 0.1, ..., 1.0


class TestCertifyWithCanonicalR:
    def test_radius_covers_certified_ball(self):
        entry, sched, B0, R = compliant("compliant-quadratic-4")
        cert, bounds = theory.certify_with_canonical_R(
            entry.problem, entry.xhat, entry.default_x0, sched, B0)
        assert cert.R * cert.eps0 <= bounds.radius

    def test_infeasible_constants_raise(self):
        p, xhat = identity_problem()
        s = PowerSchedule(c0=0.1, c1=1.0, a=1.0)  # b*eps0 = 1: hopeless
        B0 = initial_inverse(p, xhat, s.eps(0.0))
        with pytest.raises(ValueError):
            theory.certify_with_canonical_R(p, xhat, xhat, s, B0)


class TestSinglePass:
    def test_constants_computed_once(self, record_calls):
        entry, sched, B0, R = compliant("compliant-affine-8")
        calls = record_calls(hilbert.op_norm, hilbert.op_norms, flow.mismatch_operator,
                             theory.solve_source)
        theory.certify_with_canonical_R(entry.problem, entry.xhat, entry.default_x0, sched, B0)
        assert {name: len(seen) for name, seen in calls.items()} == {
            "op_norm": 0, "op_norms": 1, "mismatch_operator": 1, "solve_source": 1}

    def test_certify_at_canonical_R_matches_field_for_field(self):
        for label, entry, sched, B0, R in gallery.compliant_suite():
            args = (entry.problem, entry.xhat, entry.default_x0, sched, B0)
            cert, bounds = theory.certify_with_canonical_R(*args)
            again = theory.certify(*args, bounds, cert.R)
            for f in dataclasses.fields(theory.Certificate):
                a, b = getattr(cert, f.name), getattr(again, f.name)
                if f.name == "w":
                    assert np.array_equal(a, b), label
                elif f.name == "checks":
                    assert list(a.items()) == list(b.items()), label
                else:
                    assert a == b, (label, f.name)
            assert again.overall == cert.overall


class TestMemoizedBounds:
    @pytest.mark.parametrize("kind, n", [("rank_deficient", 4), ("hilbert_matrix", 8)])
    def test_exhaustion_samples_each_radius_once(self, record_calls, kind, n):
        calls = record_calls(problem.estimate_bounds, theory.certify_with_canonical_R)
        with pytest.raises(ValueError, match="no compliant configuration"):
            gallery.compliant_instance(n, seed=0, kind=kind)
        radii = [args[2] for args in calls["estimate_bounds"]]
        assert len(radii) == len(set(radii))
        assert len(radii) < len(calls["certify_with_canonical_R"])

    def test_reused_bounds_equal_fresh_sampling(self):
        entry, sched, B0, R = compliant("compliant-quadratic-4")
        args = (entry.problem, entry.xhat, entry.default_x0, sched, B0)
        cert1, bounds1 = theory.certify_with_canonical_R(*args, seed=5)
        cert2, bounds2 = theory.certify_with_canonical_R(*args, seed=5)
        assert bounds2 is bounds1 and cert2.R == cert1.R
        fresh = estimate_bounds(entry.problem, entry.xhat, bounds1.radius, seed=5)
        assert (bounds1.N1, bounds1.N2, bounds1.radius, bounds1.samples) == (
            fresh.N1, fresh.N2, fresh.radius, fresh.samples)
        assert np.array_equal(bounds1.center, fresh.center)
        assert not bounds1.center.flags.writeable

    def test_bounds_do_not_keep_the_problem_alive(self):
        p, xhat = identity_problem()
        s = PowerSchedule(c0=20.0, c1=200.0, a=1.0)
        theory.certify_with_canonical_R(p, xhat, xhat, s, initial_inverse(p, xhat, s.eps(0.0)))
        alive = weakref.ref(p)
        del p
        gc.collect()
        assert alive() is None
