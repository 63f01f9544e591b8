import dataclasses
import gc
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    FAMILIES,
    SPECTRUM_FAMILIES,
    affine_problem,
    assert_same_bits,
    compliant,
    frozen,
    gronwall_reference,
    gronwall_violation,
    identity_problem,
    lemma_battery_path,
    log_uniform,
    near,
    planted_source,
    problems,
    random_spd_path,
    seeds,
    spectrum_instance,
)

from gnflow import flow, gallery, hilbert, problem, theory
from gnflow.flow import SolverState, initial_inverse, mismatch_operator
from gnflow.hilbert import op_norm
from gnflow.integrator import IntegratorConfig, integrate
from gnflow.problem import BallBounds, estimate_bounds
from gnflow.schedule import PowerSchedule


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


class TestScopeLemma:
    """eps0 ||B0|| + ||Λ0|| >= 1 - λmin ||B0|| for every B0, with Λ0 = I -
    B0 (M + eps0 I), M = F'(xhat)* F'(xhat) and λmin its smallest eigenvalue:
    apply Λ0 to the unit eigenvector of λmin. The exact inverse of M +
    eps0 I makes both sides equal."""

    @settings(max_examples=150)
    @given(p=problems(kinds=tuple(FAMILIES)) | st.builds(
               lambda family, n, seed: spectrum_instance(family, n, seed)[0],
               st.sampled_from(tuple(SPECTRUM_FAMILIES)), st.integers(1, 16), seeds),
           eps0=log_uniform(-4.0, 0.0), B0_kind=st.sampled_from(["exact", "near", "drawn"]),
           data=st.data())
    def test_holds_to_rounding(self, p, eps0, B0_kind, data):
        xhat, n = p.known_solution, p.dim
        if B0_kind == "exact":
            B0 = initial_inverse(p, xhat, eps0)
        elif B0_kind == "near":
            B0 = initial_inverse(p, data.draw(near(xhat)), eps0)
        else:
            B0 = np.random.default_rng(data.draw(seeds)).standard_normal((n, n))
            B0 *= data.draw(log_uniform(-3.0, 3.0))
        M = flow.solution_gram(p, xhat)
        lam_min = np.linalg.eigvalsh(0.5 * (M + M.T))[0]
        B0_norm, Lambda0_norm, M_norm = hilbert.op_norms(
            np.stack([B0, mismatch_operator(p, xhat, B0, eps0), M]))
        slack = eps0 * B0_norm + Lambda0_norm - (1.0 - lam_min * B0_norm)
        # Λ0 carries the rounding of one product of B0 with M + eps0 I, and
        # λmin ||B0|| that of eigvalsh on M: each about n u ||B0|| (||M|| +
        # eps0), u the unit round-off. The worst of 30 000 drawn cases
        # reached 1.4 of this scale.
        scale = n * (np.finfo(float).eps / 2.0) * (1.0 + B0_norm * (M_norm + eps0))
        assert slack >= -4.0 * scale


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

    @pytest.mark.parametrize("ball", ["off-centre", "too-small", "short-centre"])
    def test_bounds_must_cover_the_certified_ball(self, ball):
        # N1 and N2 hold only on the ball they were sampled on, which must
        # hold U(xhat, R*eps0); the ball of exactly that radius passes
        entry, sched, B0, R = compliant("compliant-affine-8")
        args = (entry.problem, entry.xhat, entry.default_x0, sched, B0)
        cert, bounds = theory.certify_with_canonical_R(*args)
        reach = cert.R * cert.eps0
        exact = dataclasses.replace(bounds, radius=reach)
        assert theory.certify(*args, exact, cert.R).overall is True
        shift = np.zeros(entry.problem.dim)
        shift[0] = bounds.radius
        bad, message = {
            "off-centre": (dataclasses.replace(bounds, center=entry.xhat + shift),
                           "^bounds do not cover the certified ball"),
            "too-small": (dataclasses.replace(bounds, radius=0.5 * reach),
                          "^bounds do not cover the certified ball"),
            # one entry would broadcast against xhat as a point on the diagonal
            "short-centre": (dataclasses.replace(bounds, center=entry.xhat[:1].copy()),
                             "^vector has length 1, expected 8$"),
        }[ball]
        with pytest.raises(ValueError, match=message):
            theory.certify(*args, bad, cert.R)

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
        for label, entry, sched, B0, R, seed in gallery.compliant_suite():
            cert, _ = theory.certify_with_canonical_R(
                entry.problem, entry.xhat, entry.default_x0, sched, B0, seed=seed)
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

    @pytest.mark.parametrize("m", [0.0, -1.0, math.nan])
    def test_nonpositive_mu_rejected(self, m):
        with pytest.raises(ValueError, match=rf"^mu\(t\) must be positive, got {m} at t=0.5$"):
            theory.riccati_envelope_check([(0.0, 0.1), (0.5, 0.1)],
                                          lambda t: 1.0 if t == 0.0 else m)

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

    @staticmethod
    def assert_steps_match_reference(A_path, G_path, V0, gamma, T, h=0.01):
        """q, r and V at every step time bit for bit as the stepped reference
        has them, and the violation equal to the reference's; returns it."""
        q, r, V = theory._gronwall_steps(A_path, G_path, V0, gamma, T, h)
        q_ref, r_ref, V_ref = gronwall_reference(A_path, G_path, V0, gamma, T, h)
        assert_same_bits(q, q_ref)
        assert_same_bits(r, r_ref)
        assert_same_bits(np.array(V), V_ref)
        violation = theory.gronwall_check(A_path, G_path, V0, gamma, T=T, h=h)
        assert violation == gronwall_violation(q_ref, r_ref, V_ref)
        return violation

    @pytest.mark.parametrize("path", range(22))
    def test_matches_per_step_norm_reference(self, path):
        self.assert_steps_match_reference(*lemma_battery_path(path))

    @settings(max_examples=5)
    @given(seed=seeds)
    def test_random_spd_path_within_bound(self, seed):
        assert self.assert_steps_match_reference(*random_spd_path(seed)) <= 1e-6

    @settings(max_examples=5)
    @given(seed=seeds)
    def test_forced_random_spd_path_within_bound(self, seed):
        # the battery's SPD paths have G = 0, so r stays 0 along them; a
        # forcing that varies in time makes every step add to r
        A_path, _, V0, gamma, T = random_spd_path(seed)
        C = np.random.default_rng(seed).standard_normal(V0.shape)
        G_path = lambda t: np.cos(3.0 * t) * C
        assert self.assert_steps_match_reference(A_path, G_path, V0, gamma, T) <= 1e-6

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

    def test_overflowing_exp_is_a_step_failure(self):
        # int gamma passes 709 within the first step, so exp(q) overflows
        # there; the check raises FloatingPointError, not OverflowError
        with pytest.raises(FloatingPointError, match="^non-finite state after step$"):
            theory.gronwall_check(
                lambda t: 1e5 * np.eye(2), lambda t: np.zeros((2, 2)), np.eye(2),
                gamma=lambda t: 1e5, T=0.05, h=0.01)

    def test_coercivity_failure_before_an_overflowing_exp(self):
        # exp(q) overflows in the third step (q reaches 750 at its first
        # midpoint), coercivity fails at the end of the second
        with pytest.raises(ValueError, match=r"^coercivity fails at t=0\.02: "):
            theory.gronwall_check(
                lambda t: 3e4 * np.eye(2) if t < 0.015 else np.zeros((2, 2)),
                lambda t: np.eye(2), np.eye(2), gamma=lambda t: 3e4, T=0.05, h=0.01)

    def test_overflowing_exp_before_a_coercivity_failure(self):
        # the same overflow in the third step, with coercivity failing only
        # at the end of the fourth
        with pytest.raises(FloatingPointError, match="^non-finite state after step$"):
            theory.gronwall_check(
                lambda t: 3e4 * np.eye(2) if t < 0.035 else np.zeros((2, 2)),
                lambda t: np.eye(2), np.eye(2), gamma=lambda t: 3e4, T=0.05, h=0.01)

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

    @pytest.mark.parametrize("T", [0.1, 1.0, 2.0])
    def test_quadratures_in_two_rk4_calls(self, monkeypatch, T):
        # q and r take two rk4 calls over every step at once; only V is
        # advanced step by step
        calls = {"rk4": 0, "advance": 0}

        def counted(name, fn):
            def wrapper(*args, **kw):
                calls[name] += 1
                return fn(*args, **kw)
            return wrapper

        monkeypatch.setattr(theory, "rk4", counted("rk4", theory.rk4))
        monkeypatch.setattr(theory, "advance", counted("advance", theory.advance))
        theory.gronwall_check(lambda t: 1.3 * np.eye(3), lambda t: 0.1 * np.eye(3),
                              np.eye(3), gamma=lambda t: 1.3, T=T, h=0.1)
        assert calls == {"rk4": 2, "advance": round(T / 0.1)}


class TestRootPremise:
    """No certificate constant depends on F's values, so xhat must be a root
    of the certified F, checked by both entry points."""

    def test_noisy_data_refused(self):
        entry, sched, B0, R = compliant("compliant-quadratic-4")
        noisy = gallery._with_data_noise(entry, 1e-3, 0).problem
        xhat = entry.xhat
        res = np.linalg.norm(noisy.f(xhat))
        bound = 1e-8 * (1.0 + np.linalg.norm(xhat))
        message = f"^xhat is not a root: \\|\\|F\\(xhat\\)\\|\\| = {res:.3e} > {bound:.3e}$"
        args = (noisy, xhat, entry.default_x0, sched, B0)
        with pytest.raises(ValueError, match=message):
            theory.certify_with_canonical_R(*args)
        with pytest.raises(ValueError, match=message):
            theory.certify(*args, hand_bounds(xhat, 1.0, 1.0), R)

    def test_non_finite_residual_named(self):
        p, xhat = identity_problem()
        p = dataclasses.replace(p, f=lambda x: np.full(3, np.nan), validate_solution=False)
        B0 = initial_inverse(p, xhat, 0.1)
        with pytest.raises(ValueError, match="^F returned a non-finite entry"):
            theory.certify(p, xhat, xhat, PowerSchedule(c0=20.0, c1=200.0), B0,
                           hand_bounds(xhat, 1.0, 1.0), 1.0)


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

    def test_jacobian_overflow_in_ball_reported_without_warning(self):
        # the numerator is positive (F'(xhat) = 2I, x0 = xhat), but F' = I +
        # diag(exp(1000 (x - xhat))) overflows where a sample's coordinate
        # exceeds xhat's by 0.71, as some of the 64 in the unit ball do
        xhat = np.ones(3)

        def jac(x):
            with np.errstate(over="ignore"):
                return np.diag(1.0 + np.exp(1e3 * (x - xhat)))

        p = problem.NonlinearProblem(
            dim=3, f=lambda x: x - xhat + np.expm1(1e3 * (x - xhat)) / 1e3, jac=jac,
            known_solution=xhat)
        s = PowerSchedule(c0=20.0, c1=200.0, a=1.0)
        B0 = initial_inverse(p, xhat, s.eps(0.0))
        with warnings.catch_warnings(record=True) as emitted:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=r"^jacobian returned a non-finite entry at "
                                                 r"index \(\d, \d\) at sample \d+$"):
                theory.certify_with_canonical_R(p, xhat, xhat, s, B0)
        assert [str(w.message) for w in emitted] == []

    def test_radius_iteration_that_does_not_close(self, monkeypatch):
        # bounds N1 = N2 = 0.01/sqrt(radius) make R proportional to the
        # sampling radius, with R*eps0 about 160 times it: every pass grows
        # the radius, which stays finite over the 8 passes
        def bounds(p, center, radius, seed=0):
            N = 0.01 / math.sqrt(radius)
            return BallBounds(center=center, radius=radius, N1=N, N2=N, samples=0)

        monkeypatch.setattr(theory, "estimate_bounds", bounds)
        p, xhat = identity_problem()
        s = PowerSchedule(c0=20.0, c1=200.0, a=1.0)
        B0 = initial_inverse(p, xhat, s.eps(0.0))
        with pytest.raises(ValueError,
                           match="^ball radius iteration did not close after 8 passes$"):
            theory.certify_with_canonical_R(p, xhat, xhat, s, B0)


class TestSpectrumAnywhere:
    """The paper assumes nothing about where the spectrum of F'(x) lies. The
    gallery's halving search certifies instances whose F'(xhat) is
    indefinite, orthogonal, negative definite or non-normal, and an RK4 run
    from each, at a stable step until eps has halved, stays in the ball."""

    @pytest.mark.parametrize("family, n", [("indefinite", 4), ("orthogonal", 4),
                                           ("negative-definite", 4), ("non-normal", 8)])
    def test_certified_run_stays_in_the_ball(self, family, n):
        p, w_dir = spectrum_instance(family, n, seed=0)
        xhat = p.known_solution
        assert np.linalg.eigvals(problem.jacobian(p, xhat)).real.min() < 0.0
        entry, sched, B0, R = gallery._halving_search(p, w_dir, seed=0)
        x0 = entry.default_x0
        cert, _ = theory.certify_with_canonical_R(p, xhat, x0, sched, B0, seed=0)
        assert cert.overall and cert.R == R
        # 2.785: how far RK4's stability region reaches along the negative
        # real axis; eps(t) = c0 / (c1 + t) halves at t = c1
        h = 0.9 * 2.785 / (cert.N1**2 + cert.eps0)
        cfg = IntegratorConfig(method="rk4", step_h=h, horizon_T=sched.c1, record_every=1,
                               monitors=frozenset({"ball", "divergence"}))
        traj = integrate(p, sched, SolverState(t=0.0, x=x0, B=B0), cfg, xhat=xhat, R=R)
        assert traj.termination == "horizon_reached"
        assert max(d.err_norm / (R * d.eps) for _, d in traj.records) < 1.0


class TestSinglePass:
    @pytest.mark.parametrize("label, norms_per_pass", [
        # exact bounds: ||F'|| was taken, once, when the suite certified it
        ("compliant-affine-8", 0),
        # sampled bounds: one op_norms call for N1 and one for N2 per pass
        ("compliant-quadratic-4", 2),
    ], ids=["compliant-affine-8", "compliant-quadratic-4"])
    def test_constants_computed_once(self, record_calls, label, norms_per_pass):
        entry, sched, B0, R = compliant(label)
        calls = record_calls(hilbert.op_norm, hilbert.op_norms, flow.mismatch_operator,
                             theory.solve_source, problem.estimate_bounds)
        theory.certify_with_canonical_R(entry.problem, entry.xhat, entry.default_x0, sched, B0)
        # the instance constants take one op_norms call in all
        passes = len(calls.pop("estimate_bounds"))
        assert passes >= 1
        assert {name: len(seen) for name, seen in calls.items()} == {
            "op_norm": 0, "op_norms": 1 + norms_per_pass * passes,
            "mismatch_operator": 1, "solve_source": 1}

    def test_certify_at_canonical_R_matches_field_for_field(self):
        for label, entry, sched, B0, R, seed in gallery.compliant_suite():
            args = (entry.problem, entry.xhat, entry.default_x0, sched, B0)
            cert, bounds = theory.certify_with_canonical_R(*args, seed=seed)
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
    """No sampled bound outlives its certificate: each call samples afresh."""

    @pytest.mark.parametrize("kind, n", [("rank_deficient", 4), ("hilbert_matrix", 8)])
    def test_exhaustion_samples_no_bounds(self, record_calls, kind, n):
        # every attempt that reaches the certificate raises on its radius
        # numerator, which is decided before any bound is sampled
        calls = record_calls(problem.estimate_bounds, theory.certify_with_canonical_R)
        with pytest.raises(ValueError, match="no compliant configuration"):
            gallery.compliant_instance(n, seed=0, kind=kind)
        assert calls["certify_with_canonical_R"]
        assert calls["estimate_bounds"] == []

    def test_repeated_certificates_equal_fresh_sampling(self):
        entry, sched, B0, R = compliant("compliant-quadratic-4")
        args = (entry.problem, entry.xhat, entry.default_x0, sched, B0)
        (cert1, bounds1), (cert2, bounds2) = (
            theory.certify_with_canonical_R(*args, seed=5) for _ in range(2))
        fresh = estimate_bounds(entry.problem, entry.xhat, bounds1.radius, seed=5)
        for bounds in (bounds1, bounds2):
            for f in dataclasses.fields(BallBounds):
                a, b = getattr(bounds, f.name), getattr(fresh, f.name)
                assert np.array_equal(a, b) if f.name == "center" else a == b, f.name
        for f in dataclasses.fields(theory.Certificate):
            a, b = getattr(cert1, f.name), getattr(cert2, f.name)
            assert np.array_equal(a, b) if f.name == "w" else a == b, f.name

    def test_bounds_center_is_a_copy(self):
        p, xhat = identity_problem()
        s = PowerSchedule(c0=20.0, c1=200.0, a=1.0)
        _, bounds = theory.certify_with_canonical_R(
            p, xhat, xhat, s, initial_inverse(p, xhat, s.eps(0.0)))
        before = p.known_solution.copy()
        bounds.center[:] = 0.0
        assert np.array_equal(p.known_solution, before)

    def test_bounds_do_not_keep_the_problem_alive(self):
        p, xhat = identity_problem()
        s = PowerSchedule(c0=20.0, c1=200.0, a=1.0)
        theory.certify_with_canonical_R(p, xhat, xhat, s, initial_inverse(p, xhat, s.eps(0.0)))
        alive = weakref.ref(p)
        del p
        gc.collect()
        assert alive() is None
