"""The benchmark's workloads: seeded inputs, jobs and their correctness checks.

Each workload has three parts:

* ``inputs(seed)`` draws every input from the workload seed with numpy
  alone, so the same seed always gives the same inputs;
* ``setup(inputs)`` turns the inputs into jobs through the package's public
  API (gallery entries, certified instances, initial inverses);
* each job's ``check`` tests a property of the job's output that does not
  rest on the verdict the package itself printed.

Jobs look up ``gnflow.<name>`` when they run, never at setup, so the traced
run sees every call the package makes on their behalf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import gnflow

#: RK4 step of both flow workloads.
STEP_H = 0.01

#: Certified kinds of ``coupled-certified``, as (kind, n); each is built
#: ``COUPLED_COPIES`` times from different derived seeds. The cost of a
#: trajectory varies with the instance, because power iteration in the
#: diagnostics converges slowly on clustered spectra (some run 5x longer),
#: so a round needs many instances for its mean cost to settle.
COUPLED_KINDS = (("identity", 2), ("spd", 4), ("spd", 8), ("quadratic", 4), ("quadratic", 8))
COUPLED_COPIES = 16
COUPLED_HORIZON = 0.5
COUPLED_STEPS = int(round(COUPLED_HORIZON / STEP_H))

#: ``direct-nonlinear`` runs this many (autoconv, feigenbaum, autoconv-FD)
#: triples per round.
DIRECT_TRIPLES = 4
DIRECT_HORIZON = 0.5
DIRECT_STEPS = int(round(DIRECT_HORIZON / STEP_H))
AUTOCONV_NOISE = 1e-3
AUTOCONV_X0_SPREAD = 0.02
FEIGENBAUM_X0_SPREAD = 0.005
#: Direct schedule eps(t) = 0.1 / (1 + t), the command line's default.
DIRECT_C0, DIRECT_C1 = 0.1, 1.0
#: Largest allowed gap between the analytic- and FD-Jacobian end points,
#: relative to 1 + max|x|. Central differences are exact on the bilinear
#: autoconvolution up to rounding, measured near 5e-11.
FD_AGREEMENT_TOL = 1e-8

#: ``certify-build`` round: successful builds (each kind ``BUILD_COPIES``
#: times), builds that must exhaust their halvings, and Gronwall checks.
#: The counts put the median latency inside the cluster of builds and the
#: 90th percentile inside the cluster of Gronwall checks, not on the edge
#: between two clusters, where it would jump with the seed.
BUILD_KINDS = tuple((kind, n) for kind in ("spd", "quadratic") for n in (4, 8, 16))
BUILD_COPIES = 8
EXHAUSTION_KINDS = (("rank_deficient", 4), ("hilbert_matrix", 8))
GRONWALL_JOBS = 8
GRONWALL_T = 1.5
GRONWALL_STEPS = int(math.floor(GRONWALL_T / STEP_H + 1e-9))
#: The lemma battery's acceptance level for the Gronwall violation.
GRONWALL_TOL = 1e-6

_SEED_LIMIT = 2**31 - 1


@dataclass
class Job:
    """One unit of work of a workload, named ``<kind>/<instance>``.

    ``run`` performs the work and returns its output. ``check(output,
    outputs)`` returns a failure message or None; ``outputs`` maps every
    job name of the round to its output, for checks that compare jobs.
    ``digest`` reduces an output to bytes, which repeated runs of the job
    must reproduce exactly.
    """

    name: str
    run: Callable[[], object]
    steps: int
    check: Callable[[object, dict], Optional[str]]
    digest: Callable[[object], bytes]

    @property
    def kind(self) -> str:
        return self.name.split("/")[0]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _eps(sched, t: float) -> float:
    """The power-law schedule evaluated from its parameters, not its method."""
    return sched.c0 * (sched.c1 + t) ** (-sched.a)


def _trajectory_digest(traj) -> bytes:
    st = traj.final_state
    parts = [traj.termination.encode(), str(len(traj.records)).encode(), st.x.tobytes()]
    if st.B is not None:
        parts.append(st.B.tobytes())
    return b"|".join(parts)


# --- coupled-certified ------------------------------------------------------


def coupled_inputs(seed: int) -> list:
    rng = _rng(seed, 0)
    kinds = COUPLED_KINDS * COUPLED_COPIES
    seeds = rng.integers(0, _SEED_LIMIT, size=len(kinds))
    return [(kind, n, int(s)) for (kind, n), s in zip(kinds, seeds)]


def coupled_setup(inputs: list) -> list:
    cfg = gnflow.IntegratorConfig(
        method="rk4",
        step_h=STEP_H,
        horizon_T=COUPLED_HORIZON,
        record_every=10,
        monitors=frozenset({"ball", "divergence"}),
    )
    jobs = []
    for kind, n, seed in inputs:
        entry, sched, B0, R = gnflow.compliant_instance(n, seed, kind)
        st0 = gnflow.SolverState(t=0.0, x=entry.default_x0, B=B0)

        def run(entry=entry, sched=sched, st0=st0, R=R):
            return gnflow.integrate(entry.problem, sched, st0, cfg, xhat=entry.xhat, R=R)

        def check(traj, outputs, xhat=entry.xhat, sched=sched, R=R):
            if traj.termination != "horizon_reached":
                return f"termination {traj.termination}"
            for st, _ in traj.records:
                err = float(np.linalg.norm(st.x - xhat))
                if not err < R * _eps(sched, st.t):
                    return f"error {err:.3e} outside R*eps(t) at t={st.t:g}"
            return None

        jobs.append(Job(f"{kind}-{n}/{seed}", run, COUPLED_STEPS, check, _trajectory_digest))
    return jobs


# --- direct-nonlinear -------------------------------------------------------


def direct_inputs(seed: int) -> list:
    rng = _rng(seed, 1)
    out = []
    for _ in range(DIRECT_TRIPLES):
        out.append((
            int(rng.integers(0, _SEED_LIMIT)),
            AUTOCONV_X0_SPREAD * rng.standard_normal(16),
            FEIGENBAUM_X0_SPREAD * rng.standard_normal(6) / math.sqrt(6),
        ))
    return out


def _residual_decreased(problem, x0):
    def check(traj, outputs):
        if traj.termination != "horizon_reached":
            return f"termination {traj.termination}"
        r0 = float(np.linalg.norm(problem.f(x0)))
        rT = float(np.linalg.norm(problem.f(traj.final_state.x)))
        if not rT < r0:
            return f"residual did not decrease ({r0:.3e} -> {rT:.3e})"
        return None

    return check


def direct_setup(inputs: list) -> list:
    cfg = gnflow.IntegratorConfig(
        method="rk4", step_h=STEP_H, horizon_T=DIRECT_HORIZON, record_every=10**9
    )
    sched = gnflow.PowerSchedule(c0=DIRECT_C0, c1=DIRECT_C1)
    jobs = []
    for i, (noise_seed, auto_dx, feig_dx) in enumerate(inputs):
        auto = gnflow.get_entry("autoconv-16", noise=AUTOCONV_NOISE, noise_seed=noise_seed)
        feig = gnflow.get_entry("feigenbaum-6")
        # The same data with no analytic Jacobian forces finite differences.
        fd_problem = gnflow.NonlinearProblem(
            dim=auto.problem.dim,
            f=auto.problem.f,
            jac=None,
            known_solution=auto.xhat,
            label=auto.problem.label + "-fd",
            validate_solution=False,
        )
        auto_x0 = auto.default_x0 + auto_dx
        feig_x0 = feig.default_x0 + feig_dx
        analytic_name = f"autoconv-16/{i}"

        def flow_job(problem, xhat, x0):
            st0 = gnflow.SolverState(t=0.0, x=x0)
            return lambda: gnflow.integrate(problem, sched, st0, cfg, xhat=xhat)

        def fd_check(traj, outputs, problem=fd_problem, x0=auto_x0, ref=analytic_name):
            msg = _residual_decreased(problem, x0)(traj, outputs)
            if msg:
                return msg
            x_ref = outputs[ref].final_state.x
            gap = float(np.max(np.abs(traj.final_state.x - x_ref)))
            if not gap <= FD_AGREEMENT_TOL * (1.0 + float(np.max(np.abs(x_ref)))):
                return f"FD and analytic end points differ by {gap:.3e}"
            return None

        jobs += [
            Job(analytic_name, flow_job(auto.problem, auto.xhat, auto_x0), DIRECT_STEPS,
                _residual_decreased(auto.problem, auto_x0), _trajectory_digest),
            Job(f"feigenbaum-6/{i}", flow_job(feig.problem, feig.xhat, feig_x0), DIRECT_STEPS,
                _residual_decreased(feig.problem, feig_x0), _trajectory_digest),
            Job(f"autoconv-16-fd/{i}", flow_job(fd_problem, auto.xhat, auto_x0), DIRECT_STEPS,
                fd_check, _trajectory_digest),
        ]
    return jobs


# --- certify-build ----------------------------------------------------------


def certify_inputs(seed: int) -> dict:
    rng = _rng(seed, 2)
    builds = [(kind, n, int(rng.integers(0, _SEED_LIMIT)))
              for kind, n in BUILD_KINDS * BUILD_COPIES]
    exhaustion = [(kind, n, int(rng.integers(0, _SEED_LIMIT))) for kind, n in EXHAUSTION_KINDS]
    paths = []
    # Random paths A(t) = base + sin(t) S drawn as in the lemma battery,
    # except that S is scaled to norm 0.4: base has eigenvalues >= 0.5, so
    # every A(t) stays positive definite, as the lemma requires.
    for _ in range(GRONWALL_JOBS):
        n = int(rng.integers(2, 9))
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        base = Q @ np.diag(rng.uniform(0.5, 2.0, size=n)) @ Q.T
        S = rng.standard_normal((n, n))
        S = S + S.T
        S *= 0.4 / np.linalg.norm(S, 2)
        V0 = rng.standard_normal((n, n))
        paths.append((base, S, V0))
    return {"builds": builds, "exhaustion": exhaustion, "paths": paths}


def _build_job(kind: str, n: int, seed: int) -> Job:
    def run():
        return gnflow.compliant_instance(n, seed, kind)

    def check(out, outputs):
        entry, sched, B0, R = out
        p, xhat, x0 = entry.problem, entry.xhat, entry.default_x0
        eps0 = _eps(sched, 0.0)
        if not float(np.linalg.norm(x0 - xhat)) < R * eps0:
            return "x0 lies outside the certified ball R*eps(0)"
        B0_again = gnflow.initial_inverse(p, x0, eps0)
        if not np.array_equal(B0_again, B0):
            return "initial inverse does not reproduce B0"
        _, bounds = gnflow.certify_with_canonical_R(p, xhat, x0, sched, B0_again, seed=seed)
        cert = gnflow.certify(p, xhat, x0, sched, B0_again, bounds, R)
        if not cert.overall:
            failed = sorted(k for k, ok in cert.checks.items() if not ok)
            return f"certificate fails again at R: {failed}"
        return None

    def digest(out):
        entry, _, B0, R = out
        return entry.default_x0.tobytes() + B0.tobytes() + repr(R).encode()

    return Job(f"build-{kind}-{n}/{seed}", run, 0, check, digest)


def _exhaustion_job(kind: str, n: int, seed: int) -> Job:
    def run():
        try:
            gnflow.compliant_instance(n, seed, kind)
        except ValueError as exc:
            return str(exc)
        return None

    def check(out, outputs):
        if out is None or "no compliant configuration" not in out:
            return f"expected exhaustion ValueError, got {out!r}"
        return None

    return Job(f"exhaust-{kind}-{n}/{seed}", run, 0, check, lambda out: repr(out).encode())


def _gronwall_job(i: int, base, S, V0) -> Job:
    n = base.shape[0]

    def A_path(t):
        return base + math.sin(t) * S

    def gamma(t):
        A = A_path(t)
        return float(np.min(np.linalg.eigvalsh(0.5 * (A + A.T))))

    def run():
        return gnflow.gronwall_check(A_path, lambda t: np.zeros((n, n)), V0, gamma,
                                     T=GRONWALL_T, h=STEP_H)

    def check(viol, outputs):
        if not viol <= GRONWALL_TOL:
            return f"Gronwall bound violated by {viol:.3e}"
        return None

    return Job(f"gronwall/{i}", run, GRONWALL_STEPS, check, lambda v: repr(v).encode())


def certify_setup(inputs: dict) -> list:
    builds = [_build_job(*b) for b in inputs["builds"]]
    gronwall = [_gronwall_job(i, *p) for i, p in enumerate(inputs["paths"])]
    exhaustion = [_exhaustion_job(*e) for e in inputs["exhaustion"]]
    # Spread the two slow exhaustion jobs through the round.
    half = len(builds) // 2
    return (builds[:half] + exhaustion[:1] + gronwall[: GRONWALL_JOBS // 2]
            + builds[half:] + exhaustion[1:] + gronwall[GRONWALL_JOBS // 2:])


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int], object]
    setup: Callable[[object], list]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("coupled-certified", coupled_inputs, coupled_setup),
        Workload("direct-nonlinear", direct_inputs, direct_setup),
        Workload("certify-build", certify_inputs, certify_setup),
    )
}
