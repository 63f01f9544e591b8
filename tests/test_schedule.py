import numpy as np
import pytest
from oracles import frozen

from gnflow.schedule import PowerSchedule, default_schedule


def eps_dot(s, t):
    """The derivative of the power schedule, -a c0 (c1+t)^(-a-1): the oracle
    every decay-constant bound below is checked against."""
    return -s.a * s.c0 * (s.c1 + t) ** (-s.a - 1.0)


class TestEps:
    def test_reference_start_value(self):
        s = PowerSchedule(c0=0.1, c1=1.0, a=1.0)
        assert s.eps(0.0) == pytest.approx(0.1)

    def test_decade_decay(self):
        s = PowerSchedule(c0=0.1, c1=1.0, a=1.0)
        assert s.eps(9.0) == pytest.approx(0.01)

    def test_square_root_family(self):
        s = PowerSchedule(c0=1.0, c1=4.0, a=0.5)
        assert s.eps(0.0) == pytest.approx(0.5)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            PowerSchedule(c0=0.1, c1=1.0, a=1.0).eps(-1.0)


class TestEpsDot:
    def test_start_slope(self):
        s = PowerSchedule(c0=0.1, c1=1.0, a=1.0)
        assert eps_dot(s, 0.0) == pytest.approx(-0.1)

    def test_quarter_slope(self):
        s = PowerSchedule(c0=1.0, c1=1.0, a=1.0)
        assert eps_dot(s, 1.0) == pytest.approx(-0.25)

    def test_finite_difference_oracle(self):
        # central differences with a step scaled to c1 + t
        for c0, c1, a in ((0.1, 1.0, 1.0), (1.0, 4.0, 0.5), (2.0, 3.0, 0.8)):
            s = PowerSchedule(c0=c0, c1=c1, a=a)
            for t in np.linspace(0.0, 100.0, 41):
                h = 1e-5 * (c1 + t)
                fd = (s.eps(t + h) - s.eps(max(t - h, 0.0) if t >= h else 0.0)) / (2 * h) \
                    if t >= h else (s.eps(t + h) - s.eps(t)) / h
                if t >= h:
                    assert eps_dot(s, t) == pytest.approx(fd, rel=1e-8)


class TestBConstant:
    def test_hyperbolic_family_value(self):
        # |eps'|/eps^2 is constant in t for a = 1; confirm sup by grid
        s = PowerSchedule(c0=0.1, c1=1.0, a=1.0)
        b = s.b_constant()
        assert b == pytest.approx(10.0)
        ts = np.linspace(0.0, 1e4, 1000)
        ratios = np.array([abs(eps_dot(s, t)) / s.eps(t) ** 2 for t in ts])
        assert np.max(ratios) <= b + 1e-12

    def test_unit_family(self):
        assert PowerSchedule(c0=1.0, c1=1.0, a=1.0).b_constant() == pytest.approx(1.0)

    def test_sqrt_family_grid_sup(self):
        s = PowerSchedule(c0=1.0, c1=4.0, a=0.5)
        b = s.b_constant()
        assert b == pytest.approx(0.25)
        ts = np.linspace(0.0, 1e4, 2000)
        sup = max(abs(eps_dot(s, t)) / s.eps(t) ** 2 for t in ts)
        assert sup <= b + 1e-14


class TestScheduleInvariants:
    def test_monotonicity_grid(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            s = PowerSchedule(c0=float(rng.uniform(0.01, 5)),
                              c1=float(rng.uniform(0.1, 10)),
                              a=float(rng.uniform(0.05, 1.0)))
            vals = [s.eps(t) for t in np.linspace(0.0, 100.0, 1000)]
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_decay_certificate_on_grid(self):
        rng = np.random.default_rng(1)
        ts = np.linspace(0.0, 1e4, 1000)
        for _ in range(50):
            s = PowerSchedule(c0=float(rng.uniform(0.01, 5)),
                              c1=float(rng.uniform(0.1, 10)),
                              a=float(rng.uniform(1e-3, 1.0)))
            b = s.b_constant()
            for t in ts[::50]:
                assert abs(eps_dot(s, t)) <= b * s.eps(t) ** 2 + 1e-14

    def test_ratio_exact_for_a_equal_one(self):
        s = PowerSchedule(c0=0.3, c1=2.0, a=1.0)
        b = s.b_constant()
        for t in np.linspace(0.0, 50.0, 100):
            assert abs(eps_dot(s, t)) / s.eps(t) ** 2 == pytest.approx(b, abs=1e-12)


class TestValidation:
    @pytest.mark.parametrize("c0,c1,a", [(0.0, 1.0, 1.0), (1.0, 0.0, 1.0),
                                         (1.0, 1.0, 0.0), (1.0, 1.0, 1.5),
                                         (-1.0, 1.0, 0.5), (np.inf, 1.0, 1.0),
                                         (1.0, np.inf, 1.0), (np.nan, 1.0, 1.0),
                                         (1.0, np.nan, 1.0)])
    def test_bad_parameters(self, c0, c1, a):
        with pytest.raises(ValueError):
            PowerSchedule(c0=c0, c1=c1, a=a)

    def test_default_schedule(self):
        s = default_schedule()
        assert s.eps(0.0) == pytest.approx(0.1)
        assert s.eps(1.0) == pytest.approx(0.05)


class TestFrozen:
    def test_frozen_constant(self):
        s = frozen(0.25)
        assert s.eps(0.0) == 0.25
        assert s.eps(100.0) == 0.25
        assert s.b_constant() == 0.0

    def test_frozen_rejects_negative_time_and_nonpositive_eps0(self):
        with pytest.raises(ValueError, match="t must be nonnegative"):
            frozen(0.25).eps(-1.0)
        for eps0 in (0.0, -0.1, float("nan")):
            with pytest.raises(ValueError, match="eps0 must be positive"):
                frozen(eps0)
