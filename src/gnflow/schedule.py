"""Regularization schedules eps(t) and their certified decay constants.

The one family is the power law eps(t) = c0*(c1+t)**(-a) with
0 < a <= 1; its decay constant b = sup |eps'(t)| / eps(t)^2 is analytic
and positive, as the certificate requires.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import hilbert


@dataclass(frozen=True)
class PowerSchedule:
    """eps(t) = c0*(c1+t)**(-a), positive and strictly decreasing to 0."""

    c0: float
    c1: float
    a: float = 1.0

    def __post_init__(self):
        hilbert.positive("c0", self.c0)
        hilbert.positive("c1", self.c1)
        if not hilbert.positive("a", self.a) <= 1:
            raise ValueError(f"a must lie in (0, 1], got {self.a}")
        try:  # each power is largest at t = 0, so no later eps(t) overflows
            self.eps(0.0), self.b_constant()
        except OverflowError:
            raise ValueError(f"eps(0) or b overflows for {self}") from None

    def eps(self, t: float) -> float:
        return self.c0 * (self.c1 + hilbert.nonnegative("t", t)) ** (-self.a)

    def b_constant(self) -> float:
        """Smallest b with |eps'(t)| <= b * eps(t)^2 for all t >= 0.

        |eps'|/eps^2 = (a/c0)*(c1+t)**(a-1) is nonincreasing for a <= 1,
        so the supremum sits at t = 0. Returned analytically, not from a
        grid, because b feeds the certificate inequalities.
        """
        return (self.a / self.c0) * self.c1 ** (self.a - 1.0)


def default_schedule(eps0: float = 0.1) -> PowerSchedule:
    """eps(t) = eps0/(1+t), the empirically preferred family member."""
    return PowerSchedule(c0=eps0, c1=1.0, a=1.0)
