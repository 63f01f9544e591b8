"""Command-line entry point: argparse and file output for run, compare, verify, sweep.

How a run or a sweep of runs is configured and built lives in
``gnflow.run``. This module turns the command line into a
``RunConfig`` (one flag per field, overriding a ``--config`` file),
writes trajectories to CSV with 17 significant digits so repeated runs
with the same config and seed are bit-identical, writes summaries as
stable-name ``key = value`` text files, and runs the verification
batteries.

Exit codes: 0 horizon reached, 1 configuration or usage error, 2 ball
exit, 3 divergence or numerical blow-up, 4 verification battery failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from typing import Optional

import numpy as np

from . import gallery, theory
from .flow import FlowDiagnostics, SolverState, initial_inverse
from .hilbert import FactorizationError
from .integrator import IntegratorConfig, Trajectory, convergence_order, integrate
from .run import (CHOICES, CONFIG_KEYS, PARSERS, ConfigError, RunConfig, execute_run, fmt,
                  load_config, sweep, write_csv, write_lines, write_sweep_csv)
from .schedule import PowerSchedule

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_BALL_EXIT = 2
EXIT_DIVERGENCE = 3
EXIT_VERIFY_FAILED = 4

_TERMINATION_EXIT = {
    "horizon_reached": EXIT_OK,
    "ball_exit": EXIT_BALL_EXIT,
    "divergence": EXIT_DIVERGENCE,
    "numerical_error": EXIT_DIVERGENCE,
}

_DIAGNOSTIC_FIELDS = tuple(f.name for f in fields(FlowDiagnostics))

#: Flow time, then one column per ``FlowDiagnostics`` field in its order.
TRAJECTORY_COLUMNS = ("t", *_DIAGNOSTIC_FIELDS)

COMPARE_COLUMNS = ("t", "err_direct", "err_coupled", "resid_direct", "resid_coupled")


def write_trajectory_csv(path: str, traj: Trajectory) -> None:
    write_csv(path, TRAJECTORY_COLUMNS,
              ((st.t, *(getattr(d, name) for name in _DIAGNOSTIC_FIELDS))
               for st, d in traj.records))


def _config_echo(cfg: RunConfig) -> list:
    return [f"config.{CONFIG_KEYS[f.name]} = {fmt(getattr(cfg, f.name))}"
            for f in fields(RunConfig)]


def _certificate_lines(cert: theory.Certificate) -> list:
    lines = [
        f"certificate.N1 = {fmt(cert.N1)}",
        f"certificate.N2 = {fmt(cert.N2)}",
        f"certificate.b = {fmt(cert.b)}",
        f"certificate.eps0 = {fmt(cert.eps0)}",
        f"certificate.B0_norm = {fmt(cert.B0_norm)}",
        f"certificate.Lambda0_norm = {fmt(cert.Lambda0_norm)}",
        f"certificate.k = {fmt(cert.k)}",
        f"certificate.R = {fmt(cert.R)}",
        f"certificate.lambda = {fmt(cert.lam)}",
        f"certificate.w_norm = {fmt(cert.w_norm)}",
        f"certificate.source_residual = {fmt(cert.source_residual)}",
    ]
    for name, ok in cert.checks.items():
        lines.append(f"certificate.check.{name} = {str(ok).lower()}")
    lines.append(f"certificate.overall = {str(cert.overall).lower()}")
    if cert.notes:
        lines.append(f"certificate.notes = {cert.notes}")
    return lines


def cmd_run(cfg: RunConfig) -> int:
    traj, (entry, sched, x0, B0, xhat) = execute_run(cfg)
    write_trajectory_csv(cfg.out_trajectory, traj)

    exit_code = _TERMINATION_EXIT[traj.termination]
    final_st, final_d = traj.records[-1]
    lines = [
        f"termination = {traj.termination}",
        f"exit_code = {exit_code}",
        f"records = {len(traj.records)}",
        f"final.t = {fmt(final_st.t)}",
        f"final.eps = {fmt(final_d.eps)}",
        f"final.residual_norm = {fmt(final_d.residual_norm)}",
        f"final.err_norm = {fmt(final_d.err_norm)}",
        f"final.B_norm = {fmt(final_d.B_norm)}",
    ]
    lines.extend(_config_echo(cfg))
    if cfg.certify:
        if xhat is None:
            lines.append("certificate.error = problem has no known solution")
        else:
            try:
                if B0 is None:  # the direct method tracks no inverse
                    B0 = initial_inverse(entry.problem, x0, sched.eps(0.0))
                cert, _ = theory.certify_with_canonical_R(
                    entry.problem, xhat, x0, sched, B0, seed=cfg.seed
                )
                lines.extend(_certificate_lines(cert))
            except (ValueError, FactorizationError) as exc:
                lines.append(f"certificate.error = {exc}")
    write_lines(cfg.out_summary, lines)
    print(f"{cfg.problem}: {traj.termination} after {len(traj.records)} records "
          f"-> {cfg.out_trajectory}")
    return exit_code


def _reject_certify(command: str, *cfgs: RunConfig) -> None:
    """Only ``run`` certifies; a command that would drop ``certify`` refuses it."""
    if any(cfg.certify for cfg in cfgs):
        raise ConfigError(f"{command} does not certify; certify is only for run")


def cmd_compare(cfg_a: RunConfig, cfg_b: Optional[RunConfig], out: str, out_summary: str) -> int:
    if cfg_b is None:
        cfg_b = replace(cfg_a)
    cfg_a = replace(cfg_a, method="direct")
    cfg_b = replace(cfg_b, method="coupled")
    same = (
        cfg_a.problem == cfg_b.problem
        and cfg_a.schedule_c0 == cfg_b.schedule_c0
        and cfg_a.schedule_c1 == cfg_b.schedule_c1
        and cfg_a.schedule_a == cfg_b.schedule_a
    )
    if not same:
        raise ConfigError("compare needs the same problem and schedule on both sides")
    _reject_certify("compare", cfg_a, cfg_b)
    traj_d, _ = execute_run(cfg_a)
    traj_c, _ = execute_run(cfg_b)

    # zip stops at the shorter trajectory
    write_csv(out, COMPARE_COLUMNS,
              ((st_d.t, d_d.err_norm, d_c.err_norm, d_d.residual_norm, d_c.residual_norm)
               for (st_d, d_d), (_, d_c) in zip(traj_d.records, traj_c.records)))

    fin_d = traj_d.records[-1][1]
    fin_c = traj_c.records[-1][1]
    ratio = None
    if fin_d.err_norm is not None and fin_d.err_norm > 0 and fin_c.err_norm is not None:
        ratio = fin_c.err_norm / fin_d.err_norm
    summary = [
        f"termination.direct = {traj_d.termination}",
        f"termination.coupled = {traj_c.termination}",
        f"final.err_direct = {fmt(fin_d.err_norm)}",
        f"final.err_coupled = {fmt(fin_c.err_norm)}",
        f"final.err_ratio_coupled_over_direct = {fmt(ratio)}",
        f"final.resid_direct = {fmt(fin_d.residual_norm)}",
        f"final.resid_coupled = {fmt(fin_c.residual_norm)}",
    ]
    summary.extend(_config_echo(cfg_b))
    write_lines(out_summary, summary)
    code_d = _TERMINATION_EXIT[traj_d.termination]
    code_c = _TERMINATION_EXIT[traj_c.termination]
    print(f"compare {cfg_b.problem}: direct={traj_d.termination} "
          f"coupled={traj_c.termination} -> {out}")
    return max(code_d, code_c)


def _verify_lemmas() -> list:
    """Randomized checks of the two integral-inequality lemmas."""
    results = []

    viol = theory.gronwall_check(
        A_path=lambda t: 1.3 * np.eye(3),
        G_path=lambda t: np.zeros((3, 3)),
        V0=np.eye(3),
        gamma=lambda t: 1.3,
        T=2.0,
        h=0.01,
    )
    results.append(("gronwall constant-coefficient saturation", abs(viol) <= 1e-8,
                    f"|violation| = {abs(viol):.2e}"))

    worst = -np.inf
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        base = Q @ np.diag(rng.uniform(0.5, 2.0, size=n)) @ Q.T
        S = rng.standard_normal((n, n))
        S = 0.2 * (S + S.T) / 2.0
        A_path = lambda t, base=base, S=S: base + np.sin(t) * S
        gamma = lambda t, A_path=A_path: float(
            np.min(np.linalg.eigvalsh(0.5 * (A_path(t) + A_path(t).T))))
        V0 = rng.standard_normal((n, n))
        viol = theory.gronwall_check(
            A_path, lambda t, n=n: np.zeros((n, n)), V0, gamma, T=1.5, h=0.01)
        worst = max(worst, viol)
    results.append(("gronwall randomized SPD paths (20 seeds)", worst <= 1e-6,
                    f"max violation = {worst:.2e}"))

    ts = np.linspace(0.0, 5.0, 200)
    samples = [(float(t), 0.5 * np.exp(-t)) for t in ts]
    ok = theory.riccati_envelope_check(samples, lambda t: np.exp(t / 2.0))
    results.append(("riccati scalar closed form", ok, "v(t) < 1/mu(t) on grid"))
    return results


def _verify_certificate() -> list:
    results = []
    for label, entry, sched, B0, R in gallery.compliant_suite():
        p, xhat = entry.problem, entry.xhat
        cert, _ = theory.certify_with_canonical_R(p, xhat, entry.default_x0, sched, B0)
        results.append((f"{label}: certificate overall", cert.overall,
                        f"k+b*eps0 = {cert.k + cert.b * cert.eps0:.4f}"))
        st0 = SolverState(t=0.0, x=entry.default_x0, B=B0)
        icfg = IntegratorConfig(method="rk4", step_h=0.01, horizon_T=50.0,
                                record_every=10,
                                monitors=frozenset({"ball", "divergence"}))
        traj = integrate(p, sched, st0, icfg, xhat=xhat, R=R)
        results.append((f"{label}: no ball exit", traj.termination == "horizon_reached",
                        f"termination = {traj.termination}"))
        ball_ok = all(d.err_norm < R * d.eps for _, d in traj.records)
        results.append((f"{label}: error inside R*eps(t)", ball_ok, ""))
        b0n = cert.B0_norm
        eps_T = sched.eps(icfg.horizon_T)
        b_ok = all(d.B_norm <= 1.0 / d.eps + b0n + 1e-6 / eps_T for _, d in traj.records)
        results.append((f"{label}: inverse-track norm bound", b_ok, ""))
        lam_ok = all(d.lambda_norm <= cert.k + 1e-6 for _, d in traj.records)
        results.append((f"{label}: mismatch bound by k", lam_ok, ""))
        ric = theory.riccati_envelope_check(
            [(st.t, d.err_norm) for st, d in traj.records],
            lambda t: cert.lam / sched.eps(t))
        results.append((f"{label}: riccati envelope with lambda/eps", ric, ""))
    return results


def _verify_order() -> list:
    results = []
    entry = gallery.make_affine(3, "identity")
    sched = PowerSchedule(c0=0.5, c1=1.0, a=1.0)
    x0 = entry.xhat + 0.5 * np.array([1.0, -1.0, 0.5]) / np.sqrt(3)
    st0 = SolverState(t=0.0, x=x0, B=initial_inverse(entry.problem, x0, sched.eps(0.0)))
    steps = [0.1, 0.05, 0.025]
    # Halving h divides the error by 2^order: 16 for RK4, 2 for Euler.
    for method, lo, hi in (("rk4", 14, 18), ("euler", 1.8, 2.2)):
        cfg = IntegratorConfig(method=method, step_h=0.1, horizon_T=1.0, record_every=10**9,
                               monitors=frozenset())
        errs = convergence_order(entry.problem, sched, st0, cfg, steps)
        ratios = [errs[i][1] / errs[i + 1][1] for i in range(len(errs) - 1)]
        results.append((f"{method} step-halving ratios in [{lo}, {hi}]",
                        all(lo <= r <= hi for r in ratios),
                        "ratios = " + ", ".join(f"{r:.2f}" for r in ratios)))
    return results


#: The verification batteries, by ``verify --suite`` name.
_BATTERIES = {
    "lemmas": _verify_lemmas,
    "certificate": _verify_certificate,
    "order": _verify_order,
}


def cmd_verify(suite: str) -> int:
    results = _BATTERIES[suite]()
    width = max(len(name) for name, _, _ in results)
    all_ok = True
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        all_ok &= ok
        print(f"{status}  {name:<{width}}  {detail}")
    print(f"suite {suite}: {'all passed' if all_ok else 'FAILURES'}")
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


def cmd_sweep(cfg: RunConfig, param: str, values: list, seeds: list, out: str) -> int:
    _reject_certify("sweep", cfg)
    rows = sweep(cfg, param, values, seeds)
    write_sweep_csv(out, rows)
    for row in rows:
        print(f"{param}={fmt(row['param_value'])} seed={row['seed']}: "
              f"{row['termination']} final_err={fmt(row['final_err'])}")
    print(f"sweep: {len(rows)} rows -> {out}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_CONFIG: argparse's own 2 is the ball-exit code here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _list_of(kind):
    """argparse type: a comma-separated list of ``kind`` values."""
    def parse(text: str) -> list:
        return [kind(v) for v in text.split(",")]
    parse.__name__ = f"{kind.__name__} list"  # argparse names it in its error message
    return parse


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """--config plus one flag per RunConfig field: ``--`` + its name with '-' for '_'."""
    parser.add_argument("--config", help="key = value config file")
    for f in fields(RunConfig):
        flag = "--" + f.name.replace("_", "-")
        if f.type == "bool":
            parser.add_argument(flag, dest=f.name, action="store_const", const=True,
                                default=None)
        else:
            parser.add_argument(flag, dest=f.name, type=PARSERS[f.type],
                                choices=CHOICES.get(f.name))


def _config_from_args(args) -> RunConfig:
    overrides = {f.name: getattr(args, f.name) for f in fields(RunConfig)}
    return load_config(args.config, overrides)


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gnflow",
        description="Continuously regularized Gauss-Newton flows with "
                    "inverse-operator tracking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate one flow and emit CSV + summary")
    _add_run_flags(p_run)

    p_cmp = sub.add_parser("compare", help="direct vs coupled on the same problem")
    _add_run_flags(p_cmp)
    p_cmp.add_argument("--config-b", help="optional second config; must match "
                                          "problem and schedule")
    p_cmp.add_argument("--out", default="compare.csv")

    p_ver = sub.add_parser("verify", help="run a verification battery")
    p_ver.add_argument("--suite", required=True, choices=list(_BATTERIES))

    p_swp = sub.add_parser("sweep", help="parameter sweep, one CSV row per run")
    _add_run_flags(p_swp)
    p_swp.add_argument("--param", default="eps0")
    p_swp.add_argument("--values", type=_list_of(float), help="comma-separated values")
    p_swp.add_argument("--seeds", type=_list_of(int), default="0",
                       help="comma-separated seeds")
    p_swp.add_argument("--preset", choices=["eps0-range"],
                       help="eps0-range: the documented sensitivity range")
    p_swp.add_argument("--out", default="sweep.csv")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args.suite)
    try:
        cfg = _config_from_args(args)
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "compare":
            cfg_b = load_config(args.config_b, {}) if args.config_b else None
            return cmd_compare(cfg, cfg_b, args.out, cfg.out_summary)
        param, values = args.param, args.values
        if args.preset == "eps0-range":
            param, values = "eps0", [0.001, 0.01, 0.1]
        elif not values:
            raise ConfigError("sweep needs --values or --preset")
        return cmd_sweep(cfg, param, values, args.seeds, args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
