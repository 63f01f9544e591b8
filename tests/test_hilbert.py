import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from oracles import (assert_same_bits, edge_entries, log_uniform, reference_solve, seeds,
                     shift_entries, unaligned)

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


#: Entries of every class the self-dot test must get right: ordinary, NaN,
#: infinite, subnormal, and finite but so large that their squares overflow.
_ENTRIES = st.one_of(
    st.floats(-10.0, 10.0),
    st.sampled_from([np.nan, np.inf, -np.inf, 5e-324, -np.finfo(float).tiny / 3]),
    st.floats(1e154, 1e308) | st.floats(-1e308, -1e154),
    st.floats(),
)

#: The array as drawn and views of it that are not C-contiguous or not aligned.
_VIEWS = {
    "whole": lambda a: a,
    "transposed": lambda a: a.T,
    "strided": lambda a: a[..., ::2] if a.ndim else a,
    "reversed": lambda a: a[::-1] if a.ndim else a,
    "unaligned": unaligned,
}

#: Run in a fresh interpreter under OpenBLAS's Prescott kernel, whose
#: ``np.vdot`` of an unaligned float64 vector of two or more entries kills
#: the interpreter: the finiteness test, and through it a direct stage
#: whose F' comes unaligned, must not reach it.
_UNALIGNED_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from gnflow import hilbert, problem
from gnflow.flow import direct_rhs
from gnflow.schedule import PowerSchedule
def unaligned(a):  # as tests/oracles.py builds it, without its imports
    out = np.ndarray(a.shape, a.dtype, buffer=np.zeros(a.nbytes + 1, np.uint8)[1:])
    out[...] = a
    return out
for n in range(1, 17):
    u = unaligned(np.ones(n))
    assert not u.flags.aligned and hilbert.all_finite(u)
    u[-1] = np.nan
    assert not hilbert.all_finite(u)
A = unaligned(np.eye(9) + 0.1 * np.arange(81.0).reshape(9, 9) / 81.0)
p = problem.NonlinearProblem(dim=9, f=lambda x: A @ x, jac=lambda x: A)
v = direct_rhs(p, PowerSchedule(c0=0.1, c1=1.0, a=1.0), np.zeros(9), np.ones(9), 0.5)
assert hilbert.all_finite(v)
"""


class TestAllFinite:
    def test_agrees_with_a_full_reduction(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for i, a in enumerate(_finiteness_cases()):
                assert hilbert.all_finite(a) is bool(np.isfinite(a).all()), (i, a)

    @settings(max_examples=300)
    @given(a=arrays(np.float64, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6),
                    elements=_ENTRIES),
           view=st.sampled_from(sorted(_VIEWS)))
    def test_agrees_with_a_full_reduction_on_drawn_arrays(self, a, view):
        a = _VIEWS[view](a)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflowing self-dot may not warn
            assert hilbert.all_finite(a) is bool(np.isfinite(a).all())

    def test_unaligned_array_on_the_prescott_kernel(self):
        # np.vdot of such an array crashed the interpreter with SIGSEGV
        src = str(Path(hilbert.__file__).resolve().parent.parent)
        env = dict(os.environ, OPENBLAS_CORETYPE="Prescott")
        done = subprocess.run([sys.executable, "-c", _UNALIGNED_PROBE, src],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, (done.returncode, done.stderr)

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


class TestValidatorShapes:
    def test_empty_vector(self):
        with pytest.raises(ValueError, match=r"^vector must have length >= 1$"):
            hilbert.as_vector(np.empty(0))

    def test_operator_of_the_wrong_size(self):
        with pytest.raises(ValueError, match=r"^operator is 2x2, expected 3x3$"):
            hilbert.as_operator(np.eye(2), dim=3)

    @pytest.mark.parametrize("empty", [[], (), np.empty((0, 2, 2))], ids=["list", "tuple", "array"])
    def test_no_returned_values(self, empty):
        # an empty sequence of values names the function rather than
        # passing as None
        with pytest.raises(ValueError, match=r"^A_path\(t\) returned no values, "
                                             r"expected at least one$"):
            hilbert.returned("A_path(t)", empty, (2, 2), at=lambda i: f"t={i}")


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
            assert_same_bits(hilbert.solve_regularized(G, eps, b), reference_solve(G, eps, b))
        # a matrix right-hand side: one factorization, every column as alone
        Y = hilbert.solve_regularized(G, eps, rhs)
        assert_same_bits(Y, np.column_stack([reference_solve(G, eps, b) for b in rhs.T]))

    def test_matrix_rhs_validated(self):
        with pytest.raises(ValueError, match="2 rows"):
            hilbert.solve_regularized(np.eye(2), 1.0, np.ones((3, 2)))
        with pytest.raises(ValueError, match="finite"):
            hilbert.solve_regularized(np.eye(2), 1.0, np.array([[1.0, np.inf], [0.0, 1.0]]))



class TestSymmetricPart:
    """The one symmetrizing pass of the package: of ``solve_regularized``,
    the direct stage's Gram of a strided or unaligned F', ``solve_source``,
    the Gronwall coercivity test and the lemma battery's gamma."""

    @settings(max_examples=200)
    @given(A=arrays(float, st.tuples(st.integers(0, 4), st.integers(1, 6)).map(
                        lambda kn: (kn[0], kn[1], kn[1]) if kn[0] else (kn[1], kn[1])),
                    elements=edge_entries))
    def test_plain_formula_wherever_it_is_finite(self, A):
        # a matrix, or a stack of k = 1..4 of them
        AT = np.swapaxes(A, -1, -2)
        with np.errstate(over="ignore"):
            plain = 0.5 * (A + AT)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            S = hilbert.symmetric_part(A)
            blocks = [hilbert.symmetric_part(block) for block in A] if A.ndim == 3 else []
        assert_same_bits(S, np.swapaxes(S, -1, -2))
        assert np.isfinite(S).all()
        spilled = ~np.isfinite(plain)
        assert_same_bits(S[~spilled], plain[~spilled])
        assert_same_bits(S[spilled], (0.5 * A + 0.5 * AT)[spilled])
        for S_block, alone in zip(S, blocks):
            assert_same_bits(S_block, alone)

    def test_entry_above_half_the_largest_double_solves(self):
        # 0.5 * (A + A.T) made the entry inf, and the solve [nan, nan] with
        # two RuntimeWarnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = hilbert.solve_regularized(np.diag([1.44e308, 1.0]), 0.1, np.ones(2))
        assert np.allclose(y, [1.0 / (1.44e308 + 0.1), 1.0 / 1.1], rtol=1e-12, atol=0.0)


class TestSolveShifted:
    """The unchecked kernel behind ``solve_regularized`` and the direct stage."""

    @settings(max_examples=60)
    @given(n=st.integers(1, 16), eps=log_uniform(-6.0, 1.0), skew=log_uniform(-3.0, 1.0),
           cols=st.integers(1, 4), seed=seeds)
    def test_same_bits_as_checked_solve_and_reference(self, n, eps, skew, cols, seed):
        # A = J* J + skew (K - K*) is not symmetric. The reference symmetrizes
        # A + eps I; the checked solve symmetrizes A before the shift, with
        # the same bits, and the kernel is handed the symmetric part, which
        # is its precondition
        rng = np.random.default_rng(seed)
        J = rng.standard_normal((n, n))
        K = rng.standard_normal((n, n))
        A = J.T @ J + skew * (K - K.T)
        S = 0.5 * (A + A.T)
        rhs = rng.standard_normal((n, cols))
        want = np.column_stack([reference_solve(A, eps, b) for b in rhs.T])
        for b, y in zip(rhs.T, want.T):
            assert_same_bits(hilbert.solve_shifted(S, eps, b), y)
            assert_same_bits(hilbert.solve_regularized(A, eps, b), y)
        assert_same_bits(hilbert.solve_shifted(S, eps, rhs), want)
        assert_same_bits(hilbert.solve_regularized(A, eps, rhs), want)

    @settings(max_examples=300)
    @given(A=arrays(float, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6)
                    .map(lambda shape: (shape[0], shape[0])), elements=shift_entries),
           eps=shift_entries.filter(lambda e: e > 0.0))
    def test_symmetrizing_before_the_shift_keeps_the_bits(self, A, eps):
        # the identity solve_regularized rests on: adding eps I only turns an
        # off-diagonal -0.0 into +0.0, and halving a doubled diagonal entry
        # is exact, so the order of the two passes does not show, signed
        # zeros, subnormals and exponents up to 1e300 included. One sign
        # differs: an off-diagonal pair that sums to -5e-324 halves to -0.0,
        # which the shift's +0.0 then turns into +0.0
        I = np.eye(len(A))
        M = A + eps * I
        got, want = 0.5 * (A + A.T) + eps * I, 0.5 * (M + M.T)
        assert np.array_equal(got, want)
        underflow = A + A.T == -math.ulp(0.0)
        assert_same_bits(got[~underflow], want[~underflow])
        assert not np.signbit(got[underflow]).any() and np.signbit(want[underflow]).all()

    def test_checks_eps_only(self):
        with pytest.raises(ValueError, match=r"^eps must be positive and finite, got 0\.0$"):
            hilbert.solve_shifted(np.eye(2), 0.0, np.ones(2))
        with np.errstate(all="ignore"):
            y = hilbert.solve_shifted(np.eye(2), 1.0, np.array([np.nan, 1.0]))
        assert np.isnan(y[0])

    def test_non_finite_operator_named(self):
        # an infinite negative pivot fails the factorization; the diagnosis
        # does not take the eigenvalues of a non-finite matrix
        with pytest.raises(hilbert.FactorizationError,
                           match=r"^operator plus 0\.5\*I has a non-finite entry$") as exc:
            hilbert.solve_shifted(np.diag([-np.inf, 1.0]), 0.5, np.ones(2))
        assert np.isnan(exc.value.smallest_pivot)

    @settings(max_examples=200)
    @given(n=st.integers(1, 6), seed=seeds,
           bad=st.sampled_from([math.inf, -math.inf, math.nan, 1e200, -1e200, sys.float_info.max]),
           where=st.sampled_from(["diagonal", "pair", "one", "rhs"]))
    def test_non_finite_input_fails_or_shows(self, n, seed, bad, where):
        # the contract the direct stage rests on: a non-finite operator or
        # right-hand side raises FactorizationError or gives a non-finite
        # solution, without a warning under the integrator's errstate; a
        # Python float's square overflows to inf without one
        rng = np.random.default_rng(seed)
        J = rng.standard_normal((n, n))
        A = J.T @ J
        b = rng.standard_normal(n)
        i, j = rng.integers(0, n, size=2)
        if where == "diagonal":
            A[i, i] = bad * bad  # squares overflow, as in J* J
        elif where == "pair":
            A[i, j] = A[j, i] = bad * bad
        elif where == "one":
            A[i, j] = bad * bad
        else:
            b[i] = bad * bad
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("error")
            try:
                y = hilbert.solve_shifted(A, 0.1, b)
            except hilbert.FactorizationError:
                return
        assert not hilbert.all_finite(y)

#: Run in a fresh interpreter with warnings as errors: the package and its
#: command line load scipy's LAPACK extension without importing scipy.linalg,
#: and a later import of scipy.linalg works and hands out the same routines.
_IMPORT_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import gnflow, gnflow.cli
from gnflow import hilbert
heavy = {"scipy.linalg", "numpy.f2py", "numpy.testing"} & set(sys.modules)
assert not heavy, sorted(heavy)
import numpy as np
import scipy.linalg
M = np.array([[4.0, 1.0], [1.0, 3.0]])
y = scipy.linalg.cho_solve(scipy.linalg.cho_factor(M), np.ones(2))
assert np.allclose(M @ y, np.ones(2))
potrf, potrs = scipy.linalg.get_lapack_funcs(("potrf", "potrs"), (np.empty((1, 1)),))
assert potrf is hilbert._POTRF and potrs is hilbert._POTRS
"""


class TestLapackExtension:
    def test_import_leaves_scipy_linalg_out(self):
        src = str(Path(hilbert.__file__).resolve().parent.parent)
        done = subprocess.run([sys.executable, "-W", "error", "-c", _IMPORT_PROBE, src],
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_missing_extension_names_the_path_searched(self, tmp_path):
        where = tmp_path / "linalg"
        with pytest.raises(ImportError, match=f"not found in {re.escape(str(where))}$"):
            hilbert._load_flapack(str(tmp_path))


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
