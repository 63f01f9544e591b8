import numpy as np
import pytest
import scipy.linalg

from gnflow import gallery, theory
from gnflow.problem import estimate_bounds, eval_F, fd_jacobian, jacobian


class TestMakeAffine:
    def test_identity_fields(self):
        entry = gallery.make_affine(5, "identity")
        x = entry.xhat + np.arange(5.0)
        assert np.allclose(eval_F(entry.problem, x), x - entry.xhat)
        assert np.allclose(jacobian(entry.problem, x), np.eye(5))

    def test_identity_derivative_bounds(self):
        entry = gallery.make_affine(4, "identity")
        bounds = estimate_bounds(entry.problem, entry.xhat, 1.0, samples=16, seed=0)
        assert bounds.N1 == pytest.approx(1.1, rel=1e-9)
        assert bounds.N2 < 1e-6

    def test_hilbert_condition_number(self):
        entry = gallery.make_affine(8, "hilbert_matrix")
        A = jacobian(entry.problem, entry.xhat)
        evals = np.linalg.eigvalsh(A)
        cond = evals[-1] / evals[0]
        assert cond == pytest.approx(1.5e10, rel=0.05)

    def test_hilbert_matrix_equals_scipy(self):
        for n in range(1, 17):
            A = jacobian(gallery.make_affine(n, "hilbert_matrix").problem, np.zeros(n))
            assert np.array_equal(A, scipy.linalg.hilbert(n)), n

    def test_rank_deficient_range(self):
        entry = gallery.make_affine(4, "rank_deficient")
        A = jacobian(entry.problem, entry.xhat)
        M = A.T @ A
        # offsets with vanishing last component are in range(A*A)
        in_range = np.array([1.0, -2.0, 0.5, 0.0])
        w = np.linalg.lstsq(M, in_range, rcond=None)[0]
        assert np.allclose(M @ w, in_range, atol=1e-12)
        # the default x0 offset deliberately is not
        off = entry.default_x0 - entry.xhat
        w = np.linalg.lstsq(M, off, rcond=None)[0]
        assert np.linalg.norm(M @ w - off) == pytest.approx(np.abs(off[-1]), rel=1e-12)


    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="^unknown affine kind 'nope'$"):
            gallery.make_affine(4, "nope")


class TestAutoconvolution:
    def test_one_point_rejected(self):
        with pytest.raises(ValueError, match="^n must be >= 2, got 1$"):
            gallery.make_autoconvolution(1)

    def test_solution_is_exact_root(self):
        entry = gallery.make_autoconvolution(16)
        assert np.linalg.norm(eval_F(entry.problem, entry.xhat)) <= 1e-14

    def test_jacobian_matches_fd(self):
        entry = gallery.make_autoconvolution(12)
        x = entry.default_x0
        J = jacobian(entry.problem, x)
        assert np.max(np.abs(J - fd_jacobian(entry.problem, x, h=1e-5))) <= 1e-6

    def test_jacobian_is_lower_triangular_toeplitz(self):
        entry = gallery.make_autoconvolution(6)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(6)
        J = jacobian(entry.problem, x)
        ds = 1.0 / 6
        for i in range(6):
            for k in range(6):
                expected = 2.0 * ds * x[i - k] if k <= i else 0.0
                assert J[i, k] == pytest.approx(expected)

    def test_bilinear_second_derivative_center_independent(self):
        # constant second derivative: same direction sample at two centers
        # gives the same bound estimate
        entry = gallery.make_autoconvolution(10)
        b1 = estimate_bounds(entry.problem, entry.xhat, 0.5, samples=64, seed=1)
        b2 = estimate_bounds(entry.problem, entry.xhat + 0.6, 0.5, samples=64, seed=1)
        assert b1.N2 == pytest.approx(b2.N2, rel=0.10)


class TestFeigenbaumLike:
    def test_stored_solution_residual(self):
        for n in (4, 6, 8):
            entry = gallery.make_feigenbaum_like(n)
            assert np.linalg.norm(eval_F(entry.problem, entry.xhat)) <= 1e-8

    def test_jacobian_matches_fd(self):
        entry = gallery.make_feigenbaum_like(6)
        x = entry.xhat
        J = jacobian(entry.problem, x)
        assert np.max(np.abs(J - fd_jacobian(entry.problem, x, h=1e-6))) <= 1e-5

    def test_leading_coefficient_regression(self):
        # regression against the bootstrap output recorded at build time;
        # the coarse quadratic-map renormalization scale sits near -1.5
        entry = gallery.make_feigenbaum_like(4)
        assert entry.xhat[0] == pytest.approx(-1.5277183, abs=1e-5)
        assert -1.6 < entry.xhat[0] < -1.4

    def test_rescale_parameter_value(self):
        # lam = -g(1) at the stored solution: the classical scale ~ 0.3995
        entry = gallery.make_feigenbaum_like(8)
        lam = -(1.0 + np.sum(entry.xhat))
        assert lam == pytest.approx(0.3995, abs=1e-3)

    def test_unstored_size_rejected(self):
        with pytest.raises(ValueError, match="stored reference"):
            gallery.make_feigenbaum_like(5)
        with pytest.raises(ValueError, match="stored reference"):
            gallery.make_feigenbaum_like(3)


class TestCompliantInstance:
    def test_identity_passes_immediately(self):
        for seed in (0, 1, 2):
            entry, sched, B0, R = gallery.compliant_instance(3, seed, kind="identity")
            # passes without shrinking eps(0) below a halving or two
            assert sched.eps(0.0) >= 0.025

    def test_hilbert_constructive_source_recovery(self):
        entry, sched, B0, R = gallery.compliant_instance(4, seed=0, kind="hilbert_matrix")
        # certificate passed by construction; recover the planted w
        A = scipy.linalg.hilbert(4)
        M = A @ A
        evals, evecs = np.linalg.eigh(M)
        direction = evecs[:, -1]
        offset = entry.xhat - entry.default_x0
        w_planted = (direction @ offset / evals[-1]) * direction
        w, res = theory.solve_source(entry.problem, entry.xhat, entry.default_x0)
        assert res <= 1e-8 * np.linalg.norm(offset)
        assert np.linalg.norm(w - w_planted) <= 1e-6 * np.linalg.norm(w_planted)

    def test_hilbert_8_numerically_unreachable(self):
        # the contraction constant needs eps(0) below ~9*lambda_min(A*A),
        # which for the 8x8 Hilbert matrix is under 1e-19: the factorization
        # degenerates first and the constructor reports exhaustion
        with pytest.raises(ValueError, match="no compliant configuration"):
            gallery.compliant_instance(8, seed=0, kind="hilbert_matrix")

    def test_rank_deficient_source_unsatisfiable(self, record_calls):
        # not the source check: A*A has the eigenvalue 0, so by the scope
        # lemma of theory the radius numerator is at most -b(1 + eps0), and
        # every attempt raises on it, whatever eps(0), before any bound is
        # sampled
        calls = record_calls(theory._radius_numerator, estimate_bounds)
        with pytest.raises(ValueError, match="no compliant configuration"):
            gallery.compliant_instance(4, seed=0, kind="rank_deficient")
        assert len(calls["_radius_numerator"]) == gallery.MAX_HALVINGS + 1
        for b, eps0, B0_norm, Lambda0_norm in calls["_radius_numerator"]:
            numerator = 1.0 - b - eps0 * B0_norm - Lambda0_norm - b * eps0
            assert numerator == pytest.approx(-b * (1.0 + eps0), rel=1e-12)
        assert calls["estimate_bounds"] == []

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="^unknown compliant kind 'nope'$"):
            gallery.compliant_instance(4, seed=0, kind="nope")

    def test_deterministic_given_seed(self):
        e1, s1, B1, R1 = gallery.compliant_instance(3, seed=9, kind="spd")
        e2, s2, B2, R2 = gallery.compliant_instance(3, seed=9, kind="spd")
        assert np.array_equal(e1.default_x0, e2.default_x0)
        assert np.array_equal(B1, B2)
        assert R1 == R2
        assert s1 == s2

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="n <= 16"):
            gallery.compliant_instance(32, seed=0)


class TestRegistry:
    def test_every_entry_solution_residual(self):
        for label in gallery.available_labels():
            entry = gallery.get_entry(label)
            res = np.linalg.norm(eval_F(entry.problem, entry.xhat))
            bound = 1e-8 * (1.0 + np.linalg.norm(entry.xhat))
            assert res <= bound, label

    def test_every_entry_jacobian_consistency(self):
        for label in gallery.available_labels():
            entry = gallery.get_entry(label)
            if entry.problem.jac is None:
                continue
            x = entry.default_x0
            J = jacobian(entry.problem, x)
            J_fd = fd_jacobian(entry.problem, x, h=1e-5)
            scale = 1.0 + np.max(np.abs(J))
            assert np.max(np.abs(J - J_fd)) <= 1e-6 * scale, label

    def test_compliant_suite_certifies(self):
        # at its build seed each instance certifies again with its own R
        for label, entry, sched, B0, R, seed in gallery.compliant_suite():
            cert, _ = theory.certify_with_canonical_R(
                entry.problem, entry.xhat, entry.default_x0, sched, B0, seed=seed)
            assert cert.overall, label
            assert cert.R == R, label

    def test_unknown_label(self):
        with pytest.raises(KeyError, match="unknown problem label"):
            gallery.get_entry("nonexistent-99")

    def test_noise_on_compliant_entry(self):
        clean = gallery.get_entry("compliant-affine-4")
        noisy = gallery.get_entry("compliant-affine-4", noise=1e-3, noise_seed=3)
        x = clean.default_x0
        delta = eval_F(noisy.problem, x) - eval_F(clean.problem, x)
        assert 0.0 < np.linalg.norm(delta) < 1e-1
        assert np.array_equal(noisy.xhat, clean.xhat)

    @pytest.mark.parametrize("label", gallery.available_labels())
    def test_data_noise_rule(self, label):
        # one rule for every label: F_delta(x) = F(x) - delta*g, the clean
        # solution, the clean Jacobian object and the clean F's rowwise marker
        clean = gallery.get_entry(label)
        assert gallery._with_data_noise(clean, 0.0, 3) is clean
        for delta in (1e-3, 0.5):
            for seed in (0, 7):
                g = np.random.default_rng(seed).standard_normal(clean.problem.dim)
                noisy = gallery._with_data_noise(clean, delta, seed)
                looked_up = gallery.get_entry(label, noise=delta, noise_seed=seed)
                for x in (clean.default_x0, clean.xhat):
                    want = clean.problem.f(x) - delta * g
                    assert np.array_equal(noisy.problem.f(x), want)
                    assert np.array_equal(looked_up.problem.f(x), want)
                for entry in (noisy, looked_up):
                    assert np.array_equal(entry.xhat, clean.xhat)
                    assert np.array_equal(entry.default_x0, clean.default_x0)
                    assert not entry.problem.validate_solution
                    assert (hasattr(entry.problem.f, "rowwise")
                            == hasattr(clean.problem.f, "rowwise"))
                assert noisy.problem.jac is clean.problem.jac

    @pytest.mark.parametrize("label", gallery.available_labels())
    def test_every_entry_has_a_finite_known_solution(self, label):
        for noise in (0.0, 1e-3):
            entry = gallery.get_entry(label, noise=noise, noise_seed=1)
            assert entry.xhat.shape == (entry.problem.dim,)
            assert np.all(np.isfinite(entry.xhat))

    @pytest.mark.parametrize("label", gallery.available_labels())
    def test_xhat_is_the_known_solution(self, label):
        entry = gallery.get_entry(label)
        assert entry.xhat is entry.problem.known_solution

    @pytest.mark.parametrize("noise", [-0.1, np.nan, np.inf])
    def test_bad_noise_rejected_for_every_label(self, noise):
        for label in gallery.available_labels():
            with pytest.raises(ValueError, match=f"^noise must be nonnegative and finite, "
                                                 f"got {noise}$"):
                gallery.get_entry(label, noise=noise)
