"""Fixed-step explicit integration of the flows, with event monitors.

The pair (x, B) is advanced jointly in a single stage loop; B is just a
flat block of extra state. One RK4 formula, the unchecked ``rk4``, serves
``advance``, which adds the finiteness test of a step, and through it
``step``; the Gronwall lemma check in ``theory`` calls ``rk4`` on the
stacked steps of its two quadratures and ``advance`` on its operator,
step by step. Monitors watch for the ball-exit event
||x - xhat|| >= R * eps(t) and for divergence, ||x|| or ||B|| above
``DIVERGENCE_LIMIT``; each norm is :func:`hilbert.norm`'s, finite for a
finite state, so a state with entries above about 1e154 diverges with a
finite norm on record.

What a run of ``integrate`` checks, and where:

- once, at entry: the start state (checked when its ``SolverState`` was
  built) against the problem, and F, with F' for the coupled flow, at
  x0, by the diagnostics of the first record, which refuse a start where
  either is not finite;
- at each stage, nothing of x0 or B: the flow kernels on bare arrays
  check the shapes of F and F', and ``direct_rhs`` also checks the stage
  point and F' through ``jacobian``; its solve checks no array, so a
  non-finite F'* F' or gradient either fails the factorization
  (FactorizationError) or makes the velocity non-finite;
- at each step: ``advance`` checks that the new pair is finite, which a
  non-finite stage point, F, F' or velocity prevents, so such a step
  ends the run in ``numerical_error``, as a failed factorization does;
  ``step`` compares the pair's shape and dtype with the incoming
  state's, so the step's ``SolverState`` is built without checking them
  again;
- at each record: the diagnostics check F, with F' for the coupled
  flow, at the recorded state.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import hilbert
from .flow import SolverState, coupled_rhs, diagnostics, direct_rhs
from .problem import NonlinearProblem

DIVERGENCE_LIMIT = 1e12

#: The message of the FloatingPointError that ends a step with a
#: non-finite new state.
NON_FINITE_STEP = "non-finite state after step"

#: rhs callback signature: (t, x, B) -> (x_dot, B_dot); B and B_dot are
#: None for the direct flow.
RhsFn = Callable[[float, np.ndarray, Optional[np.ndarray]], tuple]


def step_count(name: str, T: float, h: float) -> int:
    """Whole steps of the positive, finite size ``h`` in the finite horizon ``T``.

    The one step grid: 1e-9 keeps a last step that round-off in T / h would
    drop. Raises ValueError naming ``name`` unless h <= T and T / h is finite.
    """
    if not T >= h:
        raise ValueError(f"{name} must be at least one step")
    if T / h == math.inf:
        raise ValueError(f"{name} must hold a finite number of steps, got {T} / {h}")
    return int(math.floor(T / h + 1e-9))


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "rk4"  # "euler" or "rk4"
    step_h: float = 0.01
    horizon_T: float = 10.0
    record_every: int = 1
    monitors: frozenset = frozenset({"divergence"})

    def __post_init__(self):
        if self.method not in ("euler", "rk4"):
            raise ValueError(f"unknown method {self.method!r}")
        hilbert.positive("step_h", self.step_h)
        step_count("horizon_T", hilbert.finite("horizon_T", self.horizon_T), self.step_h)
        hilbert.count("record_every", self.record_every)
        # a string is iterable, but its letters are no flags
        if isinstance(self.monitors, str) or not isinstance(self.monitors, Iterable):
            raise ValueError(f"monitors must be a set of flags, got {self.monitors!r}")
        unknown = set(self.monitors) - {"ball", "divergence"}
        if unknown:
            raise ValueError(f"unknown monitor flags: {sorted(unknown)}")


@dataclass
class Trajectory:
    records: list  # of (SolverState, FlowDiagnostics)
    termination: str  # horizon_reached, ball_exit, divergence or numerical_error

    @property
    def final_state(self) -> SolverState:
        return self.records[-1][0]


def _stage(x, B, xd, Bd, h):
    xs = x + h * xd
    Bs = None if B is None else B + h * Bd
    return xs, Bs


def rk4(rhs: RhsFn, x: np.ndarray, B: Optional[np.ndarray], t: float, h: float) -> tuple:
    """One classical RK4 step of the pair (x, B), unchecked.

    Works on bare arrays of any shape, elementwise; ``B`` is None when the
    flow carries no inverse track. ``rhs`` is called at the stage times
    t, t+h/2 (twice) and t+h, in that order. Returns the new pair, which
    may hold non-finite entries.
    """
    k1x, k1B = rhs(t, x, B)
    x2, B2 = _stage(x, B, k1x, k1B, h / 2.0)
    k2x, k2B = rhs(t + h / 2.0, x2, B2)
    x3, B3 = _stage(x, B, k2x, k2B, h / 2.0)
    k3x, k3B = rhs(t + h / 2.0, x3, B3)
    x4, B4 = _stage(x, B, k3x, k3B, h)
    k4x, k4B = rhs(t + h, x4, B4)
    xn = x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
    Bn = None if B is None else B + (h / 6.0) * (k1B + 2.0 * k2B + 2.0 * k3B + k4B)
    return xn, Bn


def advance(rhs: RhsFn, x: np.ndarray, B: Optional[np.ndarray], t: float, h: float,
            method: str) -> tuple:
    """One explicit Euler or classical RK4 (:func:`rk4`) step of the pair (x, B).

    Works on bare arrays and checks none of its inputs; ``B`` is None when
    the flow carries no inverse track. The schedule inside ``rhs`` is
    evaluated at the stage times t, t+h/2 and t+h. Returns the new pair.

    Raises:
        FloatingPointError: the new pair has a non-finite entry.
    """
    if method == "euler":
        xn, Bn = _stage(x, B, *rhs(t, x, B), h)
    elif method == "rk4":
        xn, Bn = rk4(rhs, x, B, t, h)
    else:
        raise ValueError(f"unknown method {method!r}")
    if not hilbert.all_finite(xn) or (Bn is not None and not hilbert.all_finite(Bn)):
        raise FloatingPointError(NON_FINITE_STEP)
    return xn, Bn


def step(rhs: RhsFn, st: SolverState, t: float, h: float, method: str) -> SolverState:
    """One explicit Euler or classical RK4 step over the product state.

    The schedule inside ``rhs`` is evaluated at the stage times t, t+h/2
    and t+h. Raises ValueError unless ``h`` is positive and finite,
    FloatingPointError on a non-finite new pair, and ValueError where
    ``SolverState`` rejects the new pair, as for an x-velocity of shape
    (n, 1), which broadcasts x to (n, n).

    ``advance`` checks the new pair's finiteness. When the pair keeps the
    shapes and dtypes of the incoming state, which were checked when that
    state was built, the new state is built without checking it again.
    """
    xn, Bn = advance(rhs, st.x, st.B, t, hilbert.positive("h", h), method)
    t = hilbert.nonnegative("t", t + h)
    if (xn.shape != st.x.shape or xn.dtype != st.x.dtype
            or Bn is not None and (Bn.shape != st.B.shape or Bn.dtype != st.B.dtype)):
        return SolverState(t=t, x=xn, B=Bn)  # its own checks judge the new layout
    new = object.__new__(SolverState)
    new.t, new.x, new.B = t, xn, Bn
    return new


def _flow_rhs(p: NonlinearProblem, s, x0) -> RhsFn:
    def rhs(t, x, B):
        if B is None:
            return direct_rhs(p, s, x0, x, t), None
        return coupled_rhs(p, s, x0, x, B, t)

    return rhs


def integrate(
    p: NonlinearProblem,
    s,
    st0: SolverState,
    cfg: IntegratorConfig,
    xhat=None,
    R: Optional[float] = None,
) -> Trajectory:
    """Advance the flow from st0 over [0, horizon_T] and record diagnostics.

    The horizon is truncated to a whole number of steps. Monitors are
    checked after every step; a trigger appends a final record at the
    triggering time and returns with the matching termination tag. A step
    that fails (a non-finite state or evaluation, or a regularized normal
    operator that cannot be factorized) ends the run as a numerical
    error, as does a mid-run state whose diagnostics overflow; the last
    finite record stands. The initial state must be measurable
    (diagnostics at t=0 may raise). Since every non-finite value ends in a
    tag or an error, numpy's floating-point warnings are not emitted.
    """
    if st0.x.size != p.dim:
        raise ValueError(f"state dimension {st0.x.size} != problem dimension {p.dim}")
    if st0.t != 0.0:
        raise ValueError(f"integration starts at t=0, got initial state at t={st0.t}")
    if "ball" in cfg.monitors and (xhat is None or R is None):
        raise ValueError("ball monitor needs both xhat and R")
    if xhat is not None:
        xhat = hilbert.as_vector(xhat, dim=p.dim)
    if R is not None:
        hilbert.positive("R", R)

    rhs = _flow_rhs(p, s, st0.x)
    n_steps = step_count("horizon_T", cfg.horizon_T, cfg.step_h)

    def event(st: SolverState) -> Optional[str]:
        """The tag of the monitor that ``st`` triggers (the ball's first), or None."""
        if "ball" in cfg.monitors and hilbert.norm(st.x - xhat) >= R * s.eps(st.t):
            return "ball_exit"
        if "divergence" in cfg.monitors and (
                hilbert.norm(st.x) > DIVERGENCE_LIMIT
                or st.B is not None and hilbert.norm(st.B) > DIVERGENCE_LIMIT):
            return "divergence"
        return None

    with np.errstate(all="ignore"):
        records = [(st0, diagnostics(p, s, st0, xhat))]
        tag = event(st0)
        if tag is not None:
            return Trajectory(records, tag)

        def try_record(st: SolverState) -> bool:
            # avoid duplicating a just-recorded time; a state too extreme to
            # measure is left unrecorded (the last finite record stands)
            if records[-1][0].t >= st.t:
                return True
            try:
                records.append((st, diagnostics(p, s, st, xhat)))
                return True
            except (FloatingPointError, ValueError):
                return False

        st = st0
        for k in range(1, n_steps + 1):
            t = (k - 1) * cfg.step_h
            try:
                st = step(rhs, st, t, cfg.step_h, cfg.method)
            except (FloatingPointError, ValueError, hilbert.FactorizationError):
                try_record(st)
                return Trajectory(records, "numerical_error")
            # Keep record times exactly on the k*h grid; the fresh state is
            # ours, so its time is set in place rather than re-validated.
            st.t = k * cfg.step_h
            tag = event(st)
            if tag is not None:
                try_record(st)
                return Trajectory(records, tag)
            if k % cfg.record_every == 0 or k == n_steps:
                if not try_record(st):
                    return Trajectory(records, "numerical_error")
        return Trajectory(records, "horizon_reached")


def convergence_order(
    p: NonlinearProblem,
    s,
    st0: SolverState,
    cfg: IntegratorConfig,
    steps: list,
) -> list:
    """Endpoint errors against a reference run at steps[-1] / 4.

    ``steps`` must be nonempty and sorted descending. The reference is
    integrated with the fourth-order method regardless of ``cfg.method``,
    so its own error is negligible against every tested step. Errors combine
    the x block and, when present, the B block, matching the product state
    the integrator advances. Used by the discretization-order tests.
    """
    if not steps:
        raise ValueError("steps must be nonempty")
    if sorted(steps, reverse=True) != list(steps):
        raise ValueError("steps must be sorted descending")

    def endpoint(h: float, method: str) -> tuple:
        c = IntegratorConfig(
            method=method,
            step_h=h,
            horizon_T=cfg.horizon_T,
            record_every=10**9,
            monitors=frozenset(),
        )
        traj = integrate(p, s, st0, c)
        st = traj.final_state
        return st.x, st.B

    ref_x, ref_B = endpoint(steps[-1] / 4.0, "rk4")
    out = []
    for h in steps:
        x, B = endpoint(h, cfg.method)
        err = hilbert.norm(x - ref_x)
        if B is not None:
            err = float(np.hypot(err, hilbert.norm(B - ref_B)))
        out.append((float(h), err))
    return out
