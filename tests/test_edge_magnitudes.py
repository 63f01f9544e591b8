"""The overflow contract of the checked entry points, driven by the edge
magnitudes of ``oracles.edge_entries``: signed zeros, subnormals and
entries above DBL_MAX/2, where the sum of two of one sign overflows.

Each entry point ends in a value with no NaN, a typed termination tag or
a typed exception (ValueError, FactorizationError or FloatingPointError),
and emits no RuntimeWarning. The regression cases below are the failures
found there and at the coupled flow's start, one per cause.
"""

import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import affine_problem, edge_entries

from gnflow import gallery, hilbert, theory
from gnflow.flow import SolverState, initial_inverse, scaled_identity_inverse
from gnflow.hilbert import FactorizationError
from gnflow.integrator import IntegratorConfig, integrate
from gnflow.problem import BallBounds, NonlinearProblem, estimate_bounds
from gnflow.schedule import PowerSchedule

TYPED = (ValueError, FactorizationError, FloatingPointError)

#: The positive edge magnitudes, for shifts, radii, bounds and schedule constants.
positive_edges = edge_entries.map(abs).filter(lambda v: v > 0.0)

#: The smallest double above DBL_MAX/2.
HALF_MAX = sys.float_info.max / 2.0 * (1.0 + sys.float_info.epsilon)

sizes = st.integers(1, 6)


def edge_vectors(n):
    return arrays(float, n, elements=edge_entries)


def edge_matrices(n):
    return arrays(float, (n, n), elements=edge_entries)


def outcome(fn):
    """``fn()`` with every warning raised as an error; a typed exception is
    returned, not raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return fn()
        except TYPED as exc:
            return exc


def assert_no_nan(*values):
    for value in values:
        assert not np.isnan(np.asarray(value, dtype=float)).any()


def affine(A, xhat, marked):
    """F(x) = A (x - xhat): the gallery's, whose Jacobian is marked constant,
    or the unmarked one of the oracles."""
    if marked:
        return gallery._affine_problem(np.asarray(A, dtype=float), xhat, "edge")
    return affine_problem(A, xhat)


class TestEdgeMagnitudes:
    @settings(max_examples=25)
    @given(data=st.data(), n=sizes, eps=positive_edges)
    def test_solve_regularized(self, data, n, eps):
        A, rhs = data.draw(edge_matrices(n)), data.draw(edge_vectors(n))
        y = outcome(lambda: hilbert.solve_regularized(A, eps, rhs))
        if not isinstance(y, Exception):
            assert_no_nan(y)

    @settings(max_examples=25)
    @given(data=st.data(), n=sizes, eps0=positive_edges)
    def test_initial_inverse(self, data, n, eps0):
        p = affine_problem(data.draw(edge_matrices(n)), np.zeros(n))
        B0 = outcome(lambda: initial_inverse(p, data.draw(edge_vectors(n)), eps0))
        if not isinstance(B0, Exception):
            assert_no_nan(B0)

    @settings(max_examples=25)
    @given(data=st.data(), n=sizes, method=st.sampled_from(["direct", "coupled"]),
           strided=st.booleans(), c0=positive_edges)
    def test_integrate(self, data, n, method, strided, c0):
        A, x0 = data.draw(edge_matrices(n)), data.draw(edge_vectors(n))
        B = data.draw(edge_matrices(n)) if method == "coupled" else None
        if strided:  # a view of every other row and column of a larger array
            jac = lambda x: np.repeat(np.repeat(A, 2, axis=0), 2, axis=1)[::2, ::2]
        else:
            jac = lambda x: A.copy()
        p = NonlinearProblem(dim=n, f=lambda x: np.dot(A, x), jac=jac)
        traj = outcome(lambda: integrate(p, PowerSchedule(c0=c0, c1=1.0),
                                         SolverState(x=x0, B=B, t=0.0),
                                         IntegratorConfig(step_h=0.1, horizon_T=0.2)))
        if not isinstance(traj, Exception):
            assert traj.termination in ("horizon_reached", "divergence", "numerical_error")
            for st_, diag in traj.records:
                assert_no_nan(st_.x, 0.0 if st_.B is None else st_.B,
                              *[v for v in vars(diag).values() if v is not None])

    @settings(max_examples=25)
    @given(data=st.data(), n=sizes, marked=st.booleans(), radius=positive_edges)
    def test_estimate_bounds(self, data, n, marked, radius):
        p = affine(data.draw(edge_matrices(n)), np.zeros(n), marked)
        bounds = outcome(lambda: estimate_bounds(p, data.draw(edge_vectors(n)), radius,
                                                 samples=4))
        if not isinstance(bounds, Exception):
            assert_no_nan(bounds.N1, bounds.N2)

    @settings(max_examples=25)
    @given(data=st.data(), n=sizes, marked=st.booleans(), a=st.floats(0.01, 1.0),
           scalars=st.lists(positive_edges, min_size=6, max_size=6))
    def test_certify(self, data, n, marked, a, scalars):
        c0, c1, radius, N1, N2, R = scalars
        xhat = np.zeros(n)
        p = affine(data.draw(edge_matrices(n)), xhat, marked)
        x0, B0 = data.draw(edge_vectors(n)), data.draw(edge_matrices(n))
        bounds = BallBounds(center=data.draw(edge_vectors(n)), radius=radius, N1=N1, N2=N2,
                            samples=1, source="sampled")
        cert = outcome(lambda: theory.certify(p, xhat, x0, PowerSchedule(c0, c1, a), B0,
                                              bounds, R))
        if not isinstance(cert, Exception):
            assert_no_nan(cert.k, cert.lam, cert.w, cert.w_norm, cert.source_residual,
                          cert.B0_norm, cert.Lambda0_norm)

    @settings(max_examples=25)
    @given(data=st.data(), n=st.integers(1, 3), gamma=positive_edges)
    def test_gronwall_check(self, data, n, gamma):
        A, G, V0 = (data.draw(edge_matrices(n)) for _ in range(3))
        violation = outcome(lambda: theory.gronwall_check(
            lambda t: A, lambda t: G, V0, lambda t: gamma, T=0.02, h=0.01))
        if not isinstance(violation, Exception):
            assert_no_nan(violation)


def _unit_bounds(n):
    return BallBounds(center=np.zeros(n), radius=1.0, N1=1.0, N2=1.0, samples=1,
                      source="sampled")


#: What each case gave before, and what it raises now.
REGRESSIONS = {
    # [nan] after an invalid-value warning: the solution 1/0.1 of HALF_MAX overflows
    "solve-overflows": (lambda: hilbert.solve_regularized([[0.0]], 0.1, [HALF_MAX]),
                        FactorizationError, "solution of operator plus 0.1"),
    # NaNs with no warning: potrf passed a NaN pivot of an indefinite matrix
    "solve-nan-pivot": (lambda: hilbert.solve_regularized(
                            np.pad([[HALF_MAX]], ((3, 0), (1, 2))), 0.01, np.zeros(4)),
                        FactorizationError, "solution of operator plus 0.01"),
    # an overflow warning: the shifted operator overflows
    "solve-shift-overflows": (lambda: hilbert.solve_regularized([[HALF_MAX]], HALF_MAX, [0.0]),
                              FactorizationError, "non-finite entry"),
    # an overflow warning in the Gram F'* F'
    "initial-inverse-gram": (lambda: initial_inverse(affine_problem([[1e155]], np.zeros(1)),
                                                     [0.0], 0.1),
                             ValueError, "operator has non-finite entries"),
    # an invalid-value warning: 1/5e-324 overflows
    "initial-inverse-solution": (lambda: initial_inverse(affine_problem([[0.0]], np.zeros(1)),
                                                         [0.0], 5e-324),
                                 FactorizationError, "solution of operator plus 5e-324"),
    # OverflowError from ||F'(x0)||**2, which the gnflow run start did not catch
    "scaled-identity-square": (lambda: scaled_identity_inverse(
                                   affine_problem([[1e155]], np.zeros(1)), [0.0], 0.1),
                               ValueError, r"^\|\|F'\(x0\)\|\|\^2 overflows, with "),
    # an invalid-value warning: the difference step 1e-4 * 5e-324 is zero
    "bounds-step": (lambda: estimate_bounds(affine_problem([[0.0]], np.zeros(1)), [0.0],
                                            5e-324, samples=4),
                    ValueError, "operator has non-finite entries"),
    # an overflow warning in the kept Gram of a constant Jacobian
    "certify-gram": (lambda: theory.certify(affine([[1e155]], np.zeros(1), True), np.zeros(1),
                                            [1.0], PowerSchedule(1.0, 1.0), np.eye(1),
                                            _unit_bounds(1), 1.0),
                     ValueError, "operator has non-finite entries"),
    # an overflow warning in I - B0 (F'* F' + eps0 I)
    "certify-mismatch": (lambda: theory.certify(
                             affine(np.eye(2), np.zeros(2), True), np.zeros(2), [1.0, 1.0],
                             PowerSchedule(1.0, 0.1), np.diag([0.0, HALF_MAX]), _unit_bounds(2),
                             1.0),
                         ValueError, "operator has non-finite entries"),
    # an overflow warning: w = 1e10 / 1e-300 overflows
    "source-element": (lambda: theory.solve_source(affine_problem([[1e-150]], np.zeros(1)),
                                                   [0.0], [1e10]),
                       ValueError, r"^source element or its residual is not finite"),
    # OverflowError from eps(0) = 5e-324 * 5e-324**-1 on the first use
    "schedule": (lambda: PowerSchedule(5e-324, 5e-324),
                 ValueError, r"^eps\(0\) or b overflows for PowerSchedule\(c0=5e-324, "),
    # an overflow warning in the step of V' = G - A V
    "gronwall-state": (lambda: theory.gronwall_check(
                           lambda t: np.array([[HALF_MAX]]), lambda t: np.zeros((1, 1)),
                           np.eye(1), lambda t: 5e-324, T=0.02, h=0.01),
                       FloatingPointError, "non-finite state after step"),
}


@pytest.mark.parametrize("case", sorted(REGRESSIONS))
def test_found_case_is_typed(case):
    fn, error, match = REGRESSIONS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=match):
            fn()


def test_offset_that_overflows_certifies_without_nan():
    # ||x0 - xhat|| of x0 = [0, HALF_MAX] overflowed with a warning; it is
    # inf now, which fails the initial-offset check
    p = affine(np.eye(2), np.zeros(2), True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = theory.certify(p, np.zeros(2), [0.0, HALF_MAX], PowerSchedule(1.0, 1.0),
                              np.eye(2), _unit_bounds(2), 1.0)
    assert not cert.checks["initial_offset"]
    assert_no_nan(cert.w, cert.w_norm, cert.source_residual)


def test_sample_points_that_overflow_sample_without_warning():
    # half of the points of this ball overflow, with a warning; F' is constant
    # there, so the points that overflow change no bound
    p = affine_problem([[1.0]], np.zeros(1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bounds = estimate_bounds(p, [sys.float_info.max], HALF_MAX)
    assert (bounds.N1, bounds.N2) == (1.1, 1e-8)


def test_constant_gram_that_overflows_keeps_exact_bounds():
    # the kept Gram [[1e310]] overflowed with a warning; the bounds need only ||F'||
    p = affine([[1e155]], np.zeros(1), True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bounds = estimate_bounds(p, [0.0], 1.0)
    assert bounds.source == "constant" and bounds.N1 == 1.1e155
