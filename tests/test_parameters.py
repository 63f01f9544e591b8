"""Every scalar parameter obeys one rule: positive and finite.

One table names each public site that takes such a parameter, or calls a
caller's function that returns one (the Gronwall rate gamma and the Riccati
envelope mu); each site must reject zero, a negative value, inf, NaN, a
value that is not a number and a one-entry array with a message naming the
parameter. A second table does the same for the count parameters, which
must be integers >= 1, a third for the times, noise levels and a bounds
hook's values, which must be nonnegative and finite, a fourth for the
scalars of either sign, which must be finite, a fifth for the arrays a
caller's function returns, which must have the expected shape and finite
entries, and a sixth for every array a caller passes or a caller's
function returns, which must hold real numbers and, if it is an operator,
at least one entry. The step grid that turns a horizon into a step count is
shared by the integrator and the Gronwall check.
"""

import math
import re
import warnings

import numpy as np
import pytest
from oracles import frozen

from gnflow import gallery, hilbert, theory
from gnflow.flow import SolverState, coupled_rhs, direct_rhs, scaled_identity_inverse
from gnflow.integrator import IntegratorConfig, integrate, step, step_count
from gnflow.problem import (
    BallBounds,
    NonlinearProblem,
    analytic_bounds,
    estimate_bounds,
    eval_F,
    fd_jacobian,
    jacobian,
    rowwise,
)
from gnflow.run import ConfigError, RunConfig, _build_run, execute_run, sweep
from gnflow.schedule import PowerSchedule

BAD_VALUES = [0.0, -1.0, math.inf, math.nan, "0.1", None, np.array([0.5])]

XHAT = np.array([1.0, 2.0])
PROBLEM = NonlinearProblem(dim=2, f=lambda x: x - XHAT, jac=lambda x: np.eye(2),
                           known_solution=XHAT)
SCHEDULE = PowerSchedule(c0=0.1, c1=1.0)
B0 = np.eye(2)


class _Schedule:
    """A schedule whose eps(0) and decay constant b are set directly."""

    def __init__(self, eps0=0.1, b=0.05):
        self.eps0, self.b = eps0, b

    def eps(self, t):
        return self.eps0

    def b_constant(self):
        return self.b


def _shown(value) -> str:
    """A bad value as a rule's message shows it: a string by its repr."""
    return repr(value) if isinstance(value, str) else str(value)


def _bounds(N1=1.0, N2=1.0):
    return BallBounds(center=XHAT, radius=1.0, N1=N1, N2=N2, samples=1, source="analytic")


def _certify(s=SCHEDULE, bounds=None, R=1.0):
    return theory.certify(PROBLEM, XHAT, XHAT, s, B0, bounds or _bounds(), R)


def _gronwall(T=1.0, h=0.1, gamma=1.0):
    return theory.gronwall_check(lambda t: np.eye(2), lambda t: np.zeros((2, 2)), np.eye(2),
                                 gamma=lambda t: gamma, T=T, h=h)


def _integrate_with_R(R):
    cfg = IntegratorConfig(step_h=0.1, horizon_T=0.2, monitors=frozenset({"ball"}))
    return integrate(PROBLEM, SCHEDULE, SolverState(t=0.0, x=XHAT + 0.01, B=B0), cfg,
                     xhat=XHAT, R=R)


def _linear_rhs(t, x, B):
    return -x, None


#: (name, call taking the bad value, exception type). The ids number the rows
#: as first listed, so deleting a row renames no other row's tests; row 1
#: went with ``flow.gauss_newton_operator`` and row 10 with ``schedule.frozen``.
SITES = [
    pytest.param("eps", lambda v: hilbert.solve_regularized(np.eye(2), v, np.ones(2)),
                 ValueError, id="0-eps"),
    pytest.param("eps0", lambda v: scaled_identity_inverse(PROBLEM, XHAT, v), ValueError,
                 id="2-eps0"),
    pytest.param("step_h", lambda v: IntegratorConfig(step_h=v), ValueError, id="3-step_h"),
    pytest.param("h", lambda v: step(_linear_rhs, SolverState(t=0.0, x=np.ones(2)), 0.0, v,
                                     "rk4"), ValueError, id="4-h"),
    pytest.param("R", _integrate_with_R, ValueError, id="5-R"),
    pytest.param("h", lambda v: fd_jacobian(PROBLEM, XHAT, h=v), ValueError, id="6-h"),
    pytest.param("radius", lambda v: estimate_bounds(PROBLEM, np.ones(2), v), ValueError,
                 id="7-radius"),
    pytest.param("c0", lambda v: PowerSchedule(c0=v, c1=1.0), ValueError, id="8-c0"),
    pytest.param("c1", lambda v: PowerSchedule(c0=0.1, c1=v), ValueError, id="9-c1"),
    pytest.param("N1", lambda v: theory.canonical_R(v, 1.0, 0.01, 0.01, 1.0, 0.01), ValueError,
                 id="11-N1"),
    pytest.param("N2", lambda v: theory.canonical_R(1.0, v, 0.01, 0.01, 1.0, 0.01), ValueError,
                 id="12-N2"),
    pytest.param("N1", lambda v: _certify(bounds=_bounds(N1=v)), ValueError, id="13-N1"),
    pytest.param("N2", lambda v: _certify(bounds=_bounds(N2=v)), ValueError, id="14-N2"),
    pytest.param("R", lambda v: _certify(R=v), ValueError, id="15-R"),
    pytest.param("b", lambda v: _certify(s=_Schedule(b=v)), ValueError, id="16-b"),
    pytest.param("eps0", lambda v: _certify(s=_Schedule(eps0=v)), ValueError, id="17-eps0"),
    pytest.param("T", lambda v: _gronwall(T=v), ValueError, id="18-T"),
    pytest.param("h", lambda v: _gronwall(h=v), ValueError, id="19-h"),
    pytest.param("ball_radius",
                 lambda v: _build_run(RunConfig(problem="identity-8", ball_radius=v)),
                 ConfigError, id="20-ball_radius"),
    pytest.param("b", lambda v: theory.canonical_R(1.0, 1.0, v, 0.01, 1.0, 0.01), ValueError,
                 id="21-b"),
    pytest.param("eps0", lambda v: theory.canonical_R(1.0, 1.0, 0.01, v, 1.0, 0.01), ValueError,
                 id="22-eps0"),
    pytest.param("a", lambda v: PowerSchedule(c0=0.1, c1=1.0, a=v), ValueError, id="23-a"),
    pytest.param("gamma(0.0)", lambda v: _gronwall(gamma=v), ValueError, id="24-gamma"),
    pytest.param("mu(0.5)",
                 lambda v: theory.riccati_envelope_check([(0.5, 0.1)], lambda t: v),
                 ValueError, id="25-mu"),
]


#: The SITES rows whose parameter is optional, so that None there means "not
#: given" and is no bad value: integrate's R and the run's ball_radius.
OPTIONAL_SITES = {"5-R", "20-ball_radius"}


@pytest.mark.parametrize("name, call, exc, value", [
    pytest.param(*site.values, value, id=f"{site.id}-{value!r}")
    for value in BAD_VALUES for site in SITES
    if not (value is None and site.id in OPTIONAL_SITES)])
def test_site_rejects_bad_value(name, call, exc, value):
    with pytest.raises(exc, match=f"^{re.escape(name)} must be positive and finite"):
        call(value)


#: (name, call taking the bad count): every count parameter is an integer >= 1.
#: The ids number the rows as first listed, so deleting a row renames no other
#: row's tests; rows 1 and 2 went with the samples parameter of
#: certify_with_canonical_R and compliant_instance.
COUNT_SITES = [
    pytest.param("samples", lambda v: estimate_bounds(PROBLEM, np.ones(2), 1.0, samples=v),
                 id="0-samples"),
    pytest.param("record_every", lambda v: IntegratorConfig(record_every=v),
                 id="3-record_every"),
    pytest.param("n", lambda v: gallery.make_feigenbaum_like(v), id="4-n"),
    pytest.param("n", lambda v: gallery.make_autoconvolution(v), id="5-n"),
    pytest.param("n", lambda v: gallery.make_affine(v, "identity"), id="6-n"),
    pytest.param("n", lambda v: gallery.compliant_instance(v, 0), id="7-n"),
    pytest.param("dim", lambda v: NonlinearProblem(dim=v, f=lambda x: x), id="8-dim"),
]


@pytest.mark.parametrize("value", [2.5, 1.0, True, "3", None], ids=repr)
@pytest.mark.parametrize("name, call", COUNT_SITES)
def test_count_site_rejects_non_integer(name, call, value):
    # a float or bool once escaped numpy as TypeError, past callers catching ValueError
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
        call(value)


@pytest.mark.parametrize("value", [0, -1, np.int64(0)], ids=repr)
@pytest.mark.parametrize("name, call", COUNT_SITES)
def test_count_site_rejects_below_one(name, call, value):
    with pytest.raises(ValueError, match=f"^{name} must be >= 1, got {value}$"):
        call(value)


def _hooked(n1, n2):
    """The problem of the tables with a bounds hook that returns (n1, n2)."""
    jac = analytic_bounds(lambda center, radius: (n1, n2))(lambda x: np.eye(2))
    return NonlinearProblem(dim=2, f=lambda x: x - XHAT, jac=jac, known_solution=XHAT)


#: (name, call taking the bad value, exception type): every time, noise
#: level and value of a bounds hook is nonnegative and finite
NONNEGATIVE_SITES = [
    ("t", lambda v: SolverState(t=v, x=np.ones(2)), ValueError),
    ("t", SCHEDULE.eps, ValueError),
    ("t", lambda v: theory.riccati_envelope_check([(v, 0.5)], lambda t: 1.0), ValueError),
    ("v(0.5)", lambda v: theory.riccati_envelope_check([(0.5, v)], lambda t: 1.0), ValueError),
    ("B0_norm", lambda v: theory.canonical_R(1.0, 1.0, 0.01, 0.01, v, 0.01), ValueError),
    ("Lambda0_norm", lambda v: theory.canonical_R(1.0, 1.0, 0.01, 0.01, 1.0, v), ValueError),
    ("noise", lambda v: gallery.get_entry("identity-8", noise=v), ValueError),
    ("noise", lambda v: sweep(RunConfig(problem="identity-8"), "noise", [0.0, v]), ConfigError),
    ("N1", lambda v: estimate_bounds(_hooked(v, 1.0), XHAT, 1.0), ValueError),
    ("N2", lambda v: estimate_bounds(_hooked(1.0, v), XHAT, 1.0), ValueError),
]
NONNEGATIVE_IDS = ["SolverState", "PowerSchedule", "riccati-t", "riccati-v",
                   "canonical_R-B0_norm", "canonical_R-Lambda0_norm", "get_entry", "sweep",
                   "bounds-hook-N1", "bounds-hook-N2"]


@pytest.mark.parametrize("value", [-0.1, math.inf, math.nan, "0.1", None, np.array([0.5])],
                         ids=repr)
@pytest.mark.parametrize("name, call, exc", NONNEGATIVE_SITES, ids=NONNEGATIVE_IDS)
def test_nonnegative_site_rejects_bad_value(name, call, exc, value):
    message = f"{name} must be nonnegative and finite, got {_shown(value)}"
    if name in ("N1", "N2") and not (isinstance(value, float) and value < 0):
        # the hook's pair passes hilbert.returned before each value passes the rule
        message = ("analytic_bounds returned entries that are not real numbers"
                   if not isinstance(value, float) else
                   f"analytic_bounds returned a non-finite entry at index ({int(name == 'N2')},)")
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("value, words", [
    (None, "entries that are not real numbers"),
    (1.0, r"shape \(\), expected \(2,\)"),
    ((1.0, 2.0, 3.0), r"shape \(3,\), expected \(2,\)"),
], ids=repr)
def test_bounds_hook_returns_a_pair(value, words):
    # each was an unnamed TypeError or unpacking error in estimate_bounds
    jac = analytic_bounds(lambda center, radius: value)(lambda x: np.eye(2))
    p = NonlinearProblem(dim=2, f=lambda x: x - XHAT, jac=jac, known_solution=XHAT)
    with pytest.raises(ValueError, match=f"^analytic_bounds returned {words}$"):
        estimate_bounds(p, XHAT, 1.0)


#: (name, call taking the bad value, exception type): a scalar of either sign,
#: or one whose lower bound is checked elsewhere, is finite
FINITE_SITES = [
    pytest.param("horizon_T", lambda v: IntegratorConfig(horizon_T=v), ValueError,
                 id="horizon_T"),
    pytest.param("x0_scale", lambda v: _build_run(RunConfig(problem="identity-8", x0_scale=v)),
                 ConfigError, id="x0_scale"),
]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, "0.1", None, np.array([0.5])],
                         ids=repr)
@pytest.mark.parametrize("name, call, exc", FINITE_SITES)
def test_finite_site_rejects_bad_value(name, call, exc, value):
    # the run's x0_scale let a value that is not a number escape math.isfinite
    # as TypeError
    with pytest.raises(exc, match=f"^{re.escape(f'{name} must be finite, got {_shown(value)}')}$"):
        call(value)


@pytest.mark.parametrize("seed", [1.5, True, "3", None, np.array([3])], ids=repr)
def test_run_seed_must_be_a_nonnegative_integer(seed):
    # 1.5 passed a test of the sign alone and failed in numpy's SeedSequence
    message = f"seed must be a nonnegative integer, got {_shown(seed)}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        execute_run(RunConfig(problem="identity-8", seed=seed, noise=0.01))
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        sweep(RunConfig(problem="identity-8"), "noise", [0.0], seeds=[0, seed])


def test_run_seed_may_be_a_numpy_integer():
    entry, *_ = _build_run(RunConfig(problem="identity-8", seed=np.int64(3), noise=0.01))
    again, *_ = _build_run(RunConfig(problem="identity-8", seed=3, noise=0.01))
    assert np.array_equal(entry.xhat, again.xhat)


@pytest.mark.parametrize("monitors", [None, "ball", 3], ids=repr)
def test_monitors_must_be_a_set_of_flags(monitors):
    # None escaped set() as TypeError, and "ball" was read as the flags b, a and l
    message = f"monitors must be a set of flags, got {monitors!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        IntegratorConfig(monitors=monitors)


class TestScalarEscapes:
    """Values that once passed a hand-written check, or none."""

    def test_array_exponent_rejected(self):
        # it was accepted, and eps(0.0) returned array([0.1])
        with pytest.raises(ValueError, match=r"^a must be positive and finite, got \[0\.5\]$"):
            PowerSchedule(0.1, 1.0, a=np.array([0.5]))

    def test_array_gamma_rejected(self):
        # it passed the check and failed later in np.concatenate, naming nothing
        with pytest.raises(ValueError, match=r"^gamma\(0\.0\) must be positive and finite, "
                                             r"got \[1\.3\]$"):
            _gronwall(gamma=np.array([1.3]))

    @pytest.mark.parametrize("a", [None, 0.0, 2.0], ids=repr)
    def test_run_schedule_exponent_is_a_config_error(self, a):
        words = "lie in (0, 1]" if a == 2.0 else "be positive and finite"
        with pytest.raises(ConfigError, match=f"^bad schedule: a must {re.escape(words)}, "
                                              f"got {a}$"):
            execute_run(RunConfig(problem="identity-8", schedule_a=a))


def _spoil(kind):
    """What turns a good returned array into a bad one of ``kind``: one more
    entry along the last axis, or a NaN or an inf as its last entry."""
    def spoil(value):
        value = np.array(value, dtype=float)
        if kind == "shape":
            return np.concatenate([value, value[..., :1]], axis=-1)
        value.flat[-1] = math.nan if kind == "nan" else math.inf
        return value
    return spoil


def _stacked_eye(x):
    return np.zeros(x.shape + (2,)) + np.eye(2)


#: (name, call taking a spoil function applied to what the caller's function
#: returns): every array a caller's function returns goes through one rule
RETURNED_SITES = [
    ("F", lambda spoil: eval_F(NonlinearProblem(dim=2, f=lambda x: spoil(x)), XHAT)),
    ("F", lambda spoil: NonlinearProblem(dim=2, f=lambda x: spoil(x - XHAT),
                                         known_solution=XHAT)),
    ("jacobian", lambda spoil: jacobian(
        NonlinearProblem(dim=2, f=lambda x: x, jac=lambda x: spoil(np.eye(2))), XHAT)),
    ("F", lambda spoil: fd_jacobian(NonlinearProblem(dim=2, f=rowwise(lambda x: spoil(x))),
                                    XHAT)),
    ("F", lambda spoil: fd_jacobian(NonlinearProblem(dim=2, f=lambda x: spoil(x)), XHAT)),
    ("jacobian", lambda spoil: estimate_bounds(
        NonlinearProblem(dim=2, f=lambda x: x, jac=rowwise(lambda x: spoil(_stacked_eye(x)))),
        XHAT, 1.0, samples=4)),
    ("jacobian", lambda spoil: estimate_bounds(
        NonlinearProblem(dim=2, f=lambda x: x, jac=lambda x: spoil(np.eye(2))),
        XHAT, 1.0, samples=4)),
    ("A_path(t)", lambda spoil: theory.gronwall_check(
        lambda t: spoil(np.eye(2)), lambda t: np.zeros((2, 2)), np.eye(2),
        gamma=lambda t: 1.0, T=0.2, h=0.1)),
    ("G_path(t)", lambda spoil: theory.gronwall_check(
        lambda t: np.eye(2), lambda t: spoil(np.zeros((2, 2))), np.eye(2),
        gamma=lambda t: 1.0, T=0.2, h=0.1)),
]
RETURNED_IDS = ["eval_F", "known_solution", "jacobian", "fd_jacobian-rowwise", "fd_jacobian",
                "estimate_bounds-rowwise", "estimate_bounds", "gronwall-A", "gronwall-G"]


@pytest.mark.parametrize("kind", ["shape", "nan", "inf"])
@pytest.mark.parametrize("name, call", RETURNED_SITES, ids=RETURNED_IDS)
def test_returned_site_rejects_bad_array(name, call, kind):
    where = r"( at \S.*)?"  # the failing point of a sequence of values
    if kind == "shape":
        message = rf"^{re.escape(name)} returned shape \([\d, ]+\){where}, expected \([\d, ]+\)$"
    else:
        message = rf"^{re.escape(name)} returned a non-finite entry at index \([\d, ]+\){where}$"
    with pytest.raises(ValueError, match=message):
        call(_spoil(kind))


_SHORT = IntegratorConfig(step_h=0.1, horizon_T=0.2)

#: (subject of the message, a good array, call taking the bad array): every
#: array a caller passes or a caller's function returns goes through one rule
ARRAY_SITES = [
    pytest.param("vector has", np.ones(2), lambda v: SolverState(t=0.0, x=v), id="SolverState-x"),
    pytest.param("operator has", B0, lambda v: SolverState(t=0.0, x=XHAT, B=v), id="SolverState-B"),
    pytest.param("vector has", XHAT, lambda v: integrate(PROBLEM, SCHEDULE, SolverState(0.0, XHAT),
                                                     _SHORT, xhat=v), id="integrate-xhat"),
    pytest.param("vector has", XHAT, lambda v: theory.certify(PROBLEM, XHAT, v, SCHEDULE, B0,
                                                          _bounds(), 1.0), id="certify-x0"),
    pytest.param("operator has", B0, lambda v: theory.certify(PROBLEM, XHAT, XHAT, SCHEDULE, v,
                                                          _bounds(), 1.0), id="certify-B0"),
    pytest.param("vector has", XHAT, lambda v: estimate_bounds(PROBLEM, v, 1.0),
                 id="estimate_bounds-center"),
    pytest.param("F returned", XHAT,
                 lambda v: eval_F(NonlinearProblem(dim=2, f=lambda x: v), XHAT), id="eval_F"),
    pytest.param("jacobian returned", B0, lambda v: jacobian(
        NonlinearProblem(dim=2, f=lambda x: x, jac=lambda x: v), XHAT), id="jacobian"),
    pytest.param("operator has", B0, lambda v: hilbert.solve_regularized(v, 0.1, XHAT),
                 id="solve_regularized-A"),
    pytest.param("right-hand side has", XHAT, lambda v: hilbert.solve_regularized(B0, 0.1, v),
                 id="solve_regularized-rhs"),
    pytest.param("operator stack has", B0[None], hilbert.op_norms, id="op_norms"),
    pytest.param("operator has", B0, lambda v: theory.gronwall_check(
        lambda t: np.eye(2), lambda t: np.zeros((2, 2)), v, gamma=lambda t: 1.0, T=0.2, h=0.1),
                 id="gronwall_check-V0"),
]


def _ragged(good: np.ndarray) -> list:
    """``good`` as nested lists whose very last number is doubled into a list."""
    value = good.tolist()
    last = value
    while isinstance(last[-1], list):
        last = last[-1]
    last[-1] = [last[-1], last[-1]]
    return value


#: (kind, what turns a good array into a bad one of that kind, or None for the
#: bad array itself): values that are not an array of real numbers
BAD_ARRAYS = {
    "complex-array": lambda good: good + 0.5j,
    "complex-list": lambda good: (good + 0.5j).tolist(),
    "string": lambda good: good.astype(str),
    "ragged": _ragged,
}


@pytest.mark.parametrize("kind", sorted(BAD_ARRAYS))
@pytest.mark.parametrize("subject, good, call", ARRAY_SITES)
def test_array_site_rejects_values_that_are_not_real(subject, good, call, kind):
    # a complex array lost its imaginary part with a ComplexWarning, numeric
    # strings converted, and the rest escaped as TypeError or numpy's own error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{subject} entries that are not real numbers$"):
            call(BAD_ARRAYS[kind](good))


@pytest.mark.parametrize("subject, good, call", [
    site for site in ARRAY_SITES if site.values[0] == "operator has"] + [
    pytest.param("operator stack has", np.zeros((1, 0, 0)), hilbert.op_norms, id="op_norms")])
def test_array_site_rejects_an_empty_operator(subject, good, call):
    # a 0 x 0 operator passed as_operator, and a (1, 0, 0) stack raised IndexError
    empty = re.escape(str(good.shape if good.ndim == 3 else (0, 0)))
    with pytest.raises(ValueError, match=f"^{subject} shape {empty}, expected"):
        call(np.zeros((0, 0)) if good.ndim == 2 else good)


class TestCount:
    def test_returns_a_python_int(self):
        assert hilbert.count("n", 3) == 3
        value = hilbert.count("n", np.int64(7))
        assert value == 7 and type(value) is int

    def test_problem_stores_a_python_int(self):
        p = NonlinearProblem(dim=np.int64(2), f=lambda x: x)
        assert p.dim == 2 and type(p.dim) is int

    def test_integer_test(self):
        assert hilbert.integer(3) == 3 and hilbert.integer(-2) == -2
        value = hilbert.integer(np.int32(5))
        assert value == 5 and type(value) is int
        for value in (True, 1.0, "1", None, np.array([1])):
            assert hilbert.integer(value) is None

    def test_numpy_integer_samples_accepted(self):
        b = estimate_bounds(PROBLEM, np.ones(2), 1.0, samples=np.int32(4))
        assert b.samples == 4 and type(b.samples) is int


class TestPositive:
    def test_returns_the_value_unchanged(self):
        assert hilbert.positive("x", 2.5) == 2.5
        assert hilbert.positive("x", 1e-300) == 1e-300
        assert hilbert.positive("x", 3) == 3

    def test_message_names_the_parameter_and_value(self):
        with pytest.raises(ValueError, match=r"^x must be positive and finite, got nan$"):
            hilbert.positive("x", math.nan)


class TestFinite:
    def test_returns_the_value_unchanged(self):
        for value in (2.5, -2.5, 0.0, -0.0, 3, -1e308):
            assert hilbert.finite("x", value) is value

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=repr)
    def test_message_names_the_parameter_and_value(self, value):
        with pytest.raises(ValueError, match=f"^x must be finite, got {value}$"):
            hilbert.finite("x", value)


#: (rule, the words of its message): every scalar rule rejects an array of
#: one or more dimensions, whatever its entries, with its own message
SCALAR_RULES = [
    pytest.param(hilbert.positive, "positive and finite", id="positive"),
    pytest.param(hilbert.nonnegative, "nonnegative and finite", id="nonnegative"),
    pytest.param(hilbert.finite, "finite", id="finite"),
]


@pytest.mark.parametrize("rule, words", SCALAR_RULES)
def test_scalar_rule_accepts_numpy_scalars(rule, words):
    assert rule("h", np.float64(2.5)) == 2.5
    value = np.array(2.5)  # a 0-d array is a scalar
    assert rule("h", value) is value


@pytest.mark.parametrize("shape", [(1,), (2,)], ids=str)
@pytest.mark.parametrize("rule, words", SCALAR_RULES)
def test_scalar_rule_rejects_an_array(rule, words, shape):
    with pytest.raises(ValueError, match=f"^h must be {words}, got \\[1"):
        rule("h", np.full(shape, 1e-6))


class TestReturned:
    def test_converts_to_float64(self):
        arr = hilbert.returned("F", [1, 2], (2,))
        assert arr.dtype == np.float64 and arr.tolist() == [1.0, 2.0]

    def test_stacks_a_sequence_of_values(self):
        arr = hilbert.returned("F", [np.ones(2), [0, 1]], (2,), at=str)
        assert arr.shape == (2, 2) and arr.tolist() == [[1.0, 1.0], [0.0, 1.0]]

    def test_names_the_first_failing_value(self):
        values = [np.ones(2), np.ones(3), np.ones(1), [np.nan, 1.0]]
        with pytest.raises(ValueError, match=r"^F returned shape \(3,\) at item 1, "
                                             r"expected \(2,\)$"):
            hilbert.returned("F", values, (2,), at=lambda i: f"item {i}")
        with pytest.raises(ValueError, match=r"^F returned a non-finite entry at index "
                                             r"\(0,\) at item 3$"):
            hilbert.returned("F", values[:1] * 3 + values[3:], (2,), at=lambda i: f"item {i}")

    def test_values_that_are_not_numbers_are_named(self):
        with pytest.raises(ValueError, match=r"^F returned entries that are not real numbers "
                                             r"at 0$"):
            hilbert.returned("F", [["a", "b"]], (2,), at=str)


class TestStepGrid:
    def test_whole_steps(self):
        assert step_count("T", 1.0, 0.1) == 10
        assert step_count("T", 1.05, 0.1) == 10
        assert step_count("T", 0.1, 0.1) == 1

    def test_round_off_keeps_the_last_step(self):
        assert 0.3 / 0.1 < 3.0
        assert step_count("T", 0.3, 0.1) == 3

    def test_shorter_than_one_step_rejected(self):
        with pytest.raises(ValueError, match="^horizon_T must be at least one step$"):
            step_count("horizon_T", 0.05, 0.1)

    @pytest.mark.parametrize("value", [math.inf, "0.1", None], ids=repr)
    def test_horizon_not_finite_rejected(self, value):
        # a value that is not a number escaped math.isfinite as TypeError
        with pytest.raises(ValueError, match=f"^horizon_T must be finite, got {_shown(value)}$"):
            IntegratorConfig(horizon_T=value)

    def test_step_count_overflow_rejected(self):
        with pytest.raises(ValueError, match="^T must hold a finite number of steps"):
            step_count("T", 1e300, 1e-10)

    def test_gronwall_rejects_horizon_shorter_than_one_step(self):
        with pytest.raises(ValueError, match="^T must be at least one step$"):
            _gronwall(T=1.0, h=2.0)

    def test_gronwall_rejects_infinite_step(self):
        with pytest.raises(ValueError, match="^h must be positive and finite"):
            _gronwall(T=1.0, h=math.inf)

    def test_gronwall_one_step_horizon_integrates(self):
        # gamma = 1, V0 = I, G = 0: V(t) = exp(-t) I meets the bound up to
        # the RK4 error of the one step, about h**5 / 120
        violation = _gronwall(T=0.1, h=0.1)
        assert type(violation) is float
        assert 0.0 < violation < 1e-6


class TestNanTime:
    """A time that is NaN or infinite is rejected, naming t: at t = inf a
    power schedule's eps would be 0.0, the unregularized flow."""

    BAD_TIMES = (math.nan, math.inf)

    def test_flow_time(self):
        # the time rule is the nonnegative rule, naming t
        for t in self.BAD_TIMES:
            with pytest.raises(ValueError, match="t must be nonnegative and finite"):
                hilbert.nonnegative("t", t)
        assert hilbert.nonnegative("t", 2.5) == 2.5
        assert hilbert.nonnegative("t", 0.0) == 0.0

    def test_solver_state(self):
        for t in self.BAD_TIMES:
            with pytest.raises(ValueError, match="t must be nonnegative and finite"):
                SolverState(t=t, x=np.ones(2))

    @pytest.mark.parametrize("s", [SCHEDULE, frozen(0.1)], ids=["power", "frozen"])
    def test_schedules(self, s):
        for t in self.BAD_TIMES:
            with pytest.raises(ValueError, match="t must be nonnegative and finite"):
                s.eps(t)

    def test_coupled_rhs(self):
        for t in self.BAD_TIMES:
            with pytest.raises(ValueError, match="t must be nonnegative and finite"):
                coupled_rhs(PROBLEM, SCHEDULE, XHAT, XHAT, B0, t)

    def test_direct_rhs(self):
        for t in self.BAD_TIMES:
            with pytest.raises(ValueError, match="t must be nonnegative and finite"):
                direct_rhs(PROBLEM, SCHEDULE, XHAT, XHAT, t)

    def test_riccati_envelope_check(self):
        for t in self.BAD_TIMES:
            with pytest.raises(ValueError, match="t must be nonnegative and finite"):
                theory.riccati_envelope_check([(0.0, 0.5), (t, 0.5)], lambda t: 1.0)
