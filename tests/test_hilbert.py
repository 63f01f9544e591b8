import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import log_uniform, reference_solve, seeds

from gnflow import gallery, hilbert
from gnflow.flow import direct_rhs
from gnflow.schedule import default_schedule


def _finiteness_cases():
    """Arrays of every shape and value class the validators meet, and more."""
    rng = np.random.default_rng(8)
    cases = [np.empty(0), np.empty((0, 0)), np.empty((0, 3, 3)),
             np.full(5, 1e308), np.full((4, 4), -1e308), np.full(7, 5e-324),
             np.array([np.finfo(float).max, np.finfo(float).tiny / 4, -0.0])]
    for base in (rng.standard_normal(6), rng.standard_normal((4, 4)),
                 rng.standard_normal((3, 5, 5))):
        cases.append(base)
        for bad in (np.nan, np.inf, -np.inf):
            for i in range(base.size):
                a = base.copy()
                a.flat[i] = bad
                cases.append(a)
    square = rng.standard_normal((6, 6))
    square[2, 4] = np.inf
    cases += [square.T, square[::2, 1::2], square[:, 4], square[::-1],
              np.stack([square, square.T])[:, ::2]]
    return cases


class TestAllFinite:
    def test_agrees_with_a_full_reduction(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for i, a in enumerate(_finiteness_cases()):
                assert hilbert.all_finite(a) is bool(np.isfinite(a).all()), (i, a)

    def test_validators_reject_a_single_bad_entry(self):
        for bad in (np.nan, np.inf, -np.inf):
            v = np.ones(4)
            v[3] = bad
            with pytest.raises(ValueError, match="index 3"):
                hilbert.as_vector(v)
            A = np.eye(4)
            A[3, 0] = bad
            with pytest.raises(ValueError, match="non-finite"):
                hilbert.as_operator(A)


class TestSolveRegularized:
    def test_zero_matrix(self):
        rhs = np.array([1.0, -2.0, 0.5])
        y = hilbert.solve_regularized(np.zeros((3, 3)), 1.0, rhs)
        assert np.allclose(y, rhs, atol=1e-14)

    def test_identity_shift(self):
        rhs = np.array([2.0, 4.0])
        y = hilbert.solve_regularized(np.eye(2), 1.0, rhs)
        assert np.allclose(y, rhs / 2.0, atol=1e-14)

    def test_against_dense_inverse_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 11))
            J = rng.standard_normal((n, n))
            G = J.T @ J
            rhs = rng.standard_normal(n)
            eps = 0.1
            oracle = np.linalg.inv(G + eps * np.eye(n)) @ rhs
            y = hilbert.solve_regularized(G, eps, rhs)
            assert np.linalg.norm(y - oracle) <= 1e-9 * np.linalg.norm(oracle)

    def test_residual_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 11))
            J = rng.standard_normal((n, n))
            G = J.T @ J
            rhs = rng.standard_normal(n)
            eps = 10.0 ** rng.integers(-3, 1)
            y = hilbert.solve_regularized(G, eps, rhs)
            res = np.linalg.norm((G + eps * np.eye(n)) @ y - rhs)
            assert res <= 1e-10 * np.linalg.norm(rhs)

    def test_not_spd_reports_pivot(self):
        A = np.diag([1.0, -5.0])
        with pytest.raises(hilbert.FactorizationError,
                           match=r"^operator plus 0\.5\*I is not positive definite; "
                                 r"smallest eigenvalue -4\.500000e\+00$") as exc:
            hilbert.solve_regularized(A, 0.5, np.ones(2))
        assert exc.value.smallest_pivot == pytest.approx(-4.5)

    def test_shift_lost_in_rounding_named(self):
        # positive definite in exact arithmetic: ||F'|| is about 1.2e19 here,
        # so F'*F' is about 1e38 and the shift 0.1 vanishes in rounding
        entry = gallery.get_entry("feigenbaum-6")
        x = entry.default_x0 + 0.3
        with pytest.raises(hilbert.FactorizationError,
                           match=r"^shift 0\.1\*I is lost in rounding .*; smallest "
                                 r"eigenvalue -") as exc:
            direct_rhs(entry.problem, default_schedule(), x, x, 0.0)
        assert exc.value.smallest_pivot < 0.0

    def test_nonpositive_eps_rejected(self):
        with pytest.raises(ValueError):
            hilbert.solve_regularized(np.eye(2), 0.0, np.ones(2))

    @pytest.mark.parametrize("eps", [np.inf, np.nan, -1.0])
    def test_non_finite_eps_rejected(self, eps):
        # an infinite shift used to return NaNs with only a RuntimeWarning
        with pytest.raises(ValueError, match="must be positive and finite"):
            hilbert.solve_regularized(np.eye(3), eps, np.ones(3))

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
    @settings(max_examples=8)
    @given(eps=st.sampled_from([1e-6, 1e-3, 0.1, 1.0]) | log_uniform(-6.0, 0.0), seed=seeds)
    def test_matches_cho_factor_reference(self, n, eps, seed):
        # the LAPACK calls behind scipy's cho_factor/cho_solve are the same,
        # so results agree bit for bit
        rng = np.random.default_rng(seed)
        J = rng.standard_normal((n, n))
        G = J.T @ J
        rhs = rng.standard_normal((n, 3))
        for b in rhs.T:
            assert np.array_equal(hilbert.solve_regularized(G, eps, b), reference_solve(G, eps, b))
        # a matrix right-hand side: one factorization, every column as alone
        Y = hilbert.solve_regularized(G, eps, rhs)
        assert np.array_equal(Y, np.column_stack([reference_solve(G, eps, b) for b in rhs.T]))

    def test_matrix_rhs_validated(self):
        with pytest.raises(ValueError, match="2 rows"):
            hilbert.solve_regularized(np.eye(2), 1.0, np.ones((3, 2)))
        with pytest.raises(ValueError, match="finite"):
            hilbert.solve_regularized(np.eye(2), 1.0, np.array([[1.0, np.inf], [0.0, 1.0]]))


class TestOpNorm:
    def test_identity(self):
        assert hilbert.op_norm(np.eye(4)) == pytest.approx(1.0, rel=1e-9)

    def test_diagonal(self):
        assert hilbert.op_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, rel=1e-9)

    def test_zero(self):
        assert hilbert.op_norm(np.zeros((3, 3))) == 0.0

    def test_against_eigendecomposition_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            A = rng.standard_normal((8, 8))
            truth = float(np.sqrt(np.max(np.linalg.eigvalsh(A.T @ A))))
            assert hilbert.op_norm(A) == pytest.approx(truth, rel=1e-5)

    def test_submultiplicative_within_tolerance(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            A = rng.standard_normal((n, n))
            B = rng.standard_normal((n, n))
            assert hilbert.op_norm(A @ B) <= 1.001 * hilbert.op_norm(A) * hilbert.op_norm(B)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((6, 6))
        assert hilbert.op_norm(A) == hilbert.op_norm(A)

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
    def test_matches_lapack_two_norm(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(20):
            A = rng.standard_normal((n, n))
            assert hilbert.op_norm(A) == pytest.approx(np.linalg.norm(A, 2), rel=1e-14)

    def test_clustered_top_singular_values(self):
        # top two singular values 1 and 1 - 1e-12: the gap power
        # iteration cannot resolve in a bounded number of steps
        rng = np.random.default_rng(11)
        U, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        V, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        sigma = np.array([1.0, 1.0 - 1e-12, 0.5, 0.25, 0.1, 0.01])
        A = U @ np.diag(sigma) @ V.T
        assert hilbert.op_norm(A) == pytest.approx(1.0, rel=1e-14)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            hilbert.op_norm(np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestOpNorms:
    def test_each_equals_op_norm(self):
        rng = np.random.default_rng(11)
        for n in (1, 3, 8, 16):
            stack = rng.standard_normal((5, n, n))
            norms = hilbert.op_norms(stack)
            assert [float(v) for v in norms] == [hilbert.op_norm(A) for A in stack]

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            hilbert.op_norms([np.eye(2), np.array([[1.0, np.nan], [0.0, 1.0]])])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            hilbert.op_norms(np.ones((2, 3, 4)))

    def test_rejects_non_finite_constant_stack(self, svd_shapes):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="operator has non-finite entries"):
                hilbert.op_norms(np.full((64, 3, 3), bad))
        assert svd_shapes == []


def _bits(norms) -> bytes:
    return np.asarray(norms, dtype=float).tobytes()


class TestConstantStack:
    """A stack of bit-identical matrices costs one SVD, with the bits of the
    per-matrix norms; any other stack keeps the one batched SVD."""

    @pytest.mark.parametrize("n", [1, 3, 8, 16])
    def test_one_svd_of_the_first_matrix(self, n, svd_shapes):
        A = np.random.default_rng(n).standard_normal((n, n))
        stack = np.broadcast_to(A, (64, n, n)).copy()
        norms = hilbert.op_norms(stack)
        assert svd_shapes == [(1, n, n)]
        assert _bits(norms) == _bits([hilbert.op_norm(B) for B in stack])

    def test_zero_stack(self, svd_shapes):
        assert _bits(hilbert.op_norms(np.zeros((64, 4, 4)))) == _bits(np.zeros(64))
        assert svd_shapes == [(1, 4, 4)]

    def test_signed_zeros_are_not_equal(self, svd_shapes):
        # == counts 0.0 and -0.0 as equal; the bits do not
        A = np.array([[0.0, 1.0], [2.0, 0.0]])
        stack = np.stack([A] * 5)
        stack[3, 0, 0] = -0.0
        norms = hilbert.op_norms(stack)
        assert svd_shapes == [(5, 2, 2)]
        assert _bits(norms) == _bits([hilbert.op_norm(B) for B in stack])

    @pytest.mark.parametrize("where", [0, 2, -1], ids=["first", "middle", "last"])
    def test_one_different_matrix_keeps_the_batched_svd(self, where, svd_shapes):
        stack = np.stack([np.eye(3)] * 6)
        stack[where, 1, 2] = 0.5
        norms = hilbert.op_norms(stack)
        assert svd_shapes == [(6, 3, 3)]
        assert _bits(norms) == _bits([hilbert.op_norm(B) for B in stack])

    def test_single_matrix_and_empty_stack(self, svd_shapes):
        assert hilbert.op_norms(2.0 * np.eye(3)[None]).tolist() == [2.0]
        assert hilbert.op_norms(np.empty((0, 3, 3))).shape == (0,)
        assert svd_shapes == [(1, 3, 3), (0, 3, 3)]


#: Matrix entries: finite floats, with both signed zeros drawn often.
_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-1e3, 1e3))


@st.composite
def norm_stacks(draw):
    """A (k, n, n) stack whose blocks are all equal, some equal (drawn from a
    smaller pool) or each its own, k in 1..64 and n in 1..8."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, 64))
    kind = draw(st.sampled_from(["all-equal", "some-equal", "distinct"]))
    if kind == "all-equal":
        pool_size, picks = 1, [0] * k
    elif kind == "distinct":
        pool_size, picks = k, list(range(k))
    else:
        pool_size = draw(st.integers(1, k))
        picks = draw(st.lists(st.integers(0, pool_size - 1), min_size=k, max_size=k))
    pool = draw(arrays(np.float64, (pool_size, n, n), elements=_ENTRIES))
    return pool[picks]


@settings(max_examples=150)
@given(norm_stacks())
def test_stack_norms_match_each_matrix_alone(stack):
    assert _bits(hilbert.op_norms(stack)) == _bits([hilbert.op_norm(A) for A in stack])
