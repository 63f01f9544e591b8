"""Command-line entry point: run flows, compare methods, verify, sweep.

Configuration is a flat ``key = value`` file with dotted keys plus flag
overrides (flags win). Trajectories go to CSV with 17 significant digits
so repeated runs with the same config and seed are bit-identical;
summaries are stable-name ``key = value`` text files.

Exit codes: 0 horizon reached, 1 configuration error, 2 ball exit,
3 divergence or numerical blow-up, 4 verification battery failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import gallery, theory
from .flow import SolverState, initial_inverse, scaled_identity_inverse
from .integrator import IntegratorConfig, Trajectory, convergence_order, integrate
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

TRAJECTORY_COLUMNS = (
    "t",
    "eps",
    "residual_norm",
    "err_norm",
    "B_norm",
    "lambda_norm",
    "inverse_residual",
    "D_norm",
)


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    problem: str = "compliant-affine-8"
    method: str = "coupled"  # "direct" or "coupled"
    schedule_c0: float = 0.1
    schedule_c1: float = 1.0
    schedule_a: float = 1.0
    integrator_method: str = "rk4"
    step_h: float = 0.01
    horizon_T: float = 10.0
    record_every: int = 10
    b0_mode: str = "exact_inverse"  # or "scaled_identity"
    x0_scale: float = 1.0
    ball_radius: Optional[float] = None
    certify: bool = False
    noise: float = 0.0
    seed: int = 0
    out_trajectory: str = "trajectory.csv"
    out_summary: str = "summary.txt"


#: config-file / summary key for each RunConfig field.
_CONFIG_KEYS = {
    "problem": "problem",
    "method": "method",
    "schedule_c0": "schedule.c0",
    "schedule_c1": "schedule.c1",
    "schedule_a": "schedule.a",
    "integrator_method": "integrator.method",
    "step_h": "integrator.step_h",
    "horizon_T": "integrator.horizon_T",
    "record_every": "integrator.record_every",
    "b0_mode": "b0_mode",
    "x0_scale": "x0_scale",
    "ball_radius": "ball_radius",
    "certify": "certify",
    "noise": "noise",
    "seed": "seed",
    "out_trajectory": "out.trajectory",
    "out_summary": "out.summary",
}
_KEY_TO_FIELD = {v: k for k, v in _CONFIG_KEYS.items()}


def _coerce(field_name: str, raw: str):
    kind = {f.name: f.type for f in fields(RunConfig)}[field_name]
    if field_name == "ball_radius":
        return None if raw.lower() in ("", "none") else float(raw)
    if field_name == "certify":
        return raw.lower() in ("1", "true", "yes", "on")
    if kind == "int" or field_name in ("record_every", "seed"):
        return int(raw)
    if field_name in ("problem", "method", "integrator_method", "b0_mode",
                      "out_trajectory", "out_summary"):
        return raw
    return float(raw)


def parse_config_file(path: str) -> dict:
    """Read ``key = value`` lines; '#' starts a comment."""
    out = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _KEY_TO_FIELD:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        out[_KEY_TO_FIELD[key]] = _coerce(_KEY_TO_FIELD[key], raw.strip())
    return out


def load_config(config_path: Optional[str], overrides: dict) -> RunConfig:
    """Defaults, then config file, then flag overrides."""
    cfg = RunConfig()
    if config_path:
        cfg = replace(cfg, **parse_config_file(config_path))
    fixed = {k: v for k, v in overrides.items() if v is not None}
    return replace(cfg, **fixed)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_trajectory_csv(path: str, traj: Trajectory) -> None:
    lines = [",".join(TRAJECTORY_COLUMNS)]
    for st, d in traj.records:
        row = (st.t, d.eps, d.residual_norm, d.err_norm, d.B_norm,
               d.lambda_norm, d.inverse_residual, d.D_norm)
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _config_echo(cfg: RunConfig) -> list:
    return [f"config.{_CONFIG_KEYS[f.name]} = {_fmt(getattr(cfg, f.name))}"
            for f in fields(RunConfig)]


def _certificate_lines(cert: theory.Certificate) -> list:
    lines = [
        f"certificate.N1 = {_fmt(cert.N1)}",
        f"certificate.N2 = {_fmt(cert.N2)}",
        f"certificate.b = {_fmt(cert.b)}",
        f"certificate.eps0 = {_fmt(cert.eps0)}",
        f"certificate.B0_norm = {_fmt(cert.B0_norm)}",
        f"certificate.Lambda0_norm = {_fmt(cert.Lambda0_norm)}",
        f"certificate.k = {_fmt(cert.k)}",
        f"certificate.R = {_fmt(cert.R)}",
        f"certificate.lambda = {_fmt(cert.lam)}",
        f"certificate.w_norm = {_fmt(cert.w_norm)}",
        f"certificate.source_residual = {_fmt(cert.source_residual)}",
    ]
    for name in theory.CHECK_NAMES:
        lines.append(f"certificate.check.{name} = {str(cert.checks[name]).lower()}")
    lines.append(f"certificate.overall = {str(cert.overall).lower()}")
    if cert.notes:
        lines.append(f"certificate.notes = {cert.notes}")
    return lines


def _build_run(cfg: RunConfig):
    """Resolve config into (entry, schedule, x0, B0-or-None, xhat)."""
    if cfg.method not in ("direct", "coupled"):
        raise ConfigError(f"unknown method {cfg.method!r}")
    if cfg.b0_mode not in ("exact_inverse", "scaled_identity"):
        raise ConfigError(f"unknown b0_mode {cfg.b0_mode!r}")
    try:
        entry = gallery.get_entry(cfg.problem, noise=cfg.noise, noise_seed=cfg.seed)
    except (KeyError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    try:
        sched = PowerSchedule(c0=cfg.schedule_c0, c1=cfg.schedule_c1, a=cfg.schedule_a)
    except ValueError as exc:
        raise ConfigError(f"bad schedule: {exc}") from exc

    xhat = entry.problem.known_solution
    if xhat is not None:
        x0 = xhat + cfg.x0_scale * (entry.default_x0 - xhat)
    else:
        x0 = entry.default_x0
    if cfg.ball_radius is not None and xhat is None:
        raise ConfigError("ball_radius requires a problem with a known solution")
    if cfg.ball_radius is not None and not cfg.ball_radius > 0:
        raise ConfigError(f"ball_radius must be positive, got {cfg.ball_radius}")

    B0 = None
    if cfg.method == "coupled":
        eps0 = sched.eps(0.0)
        if cfg.b0_mode == "exact_inverse":
            B0 = initial_inverse(entry.problem, x0, eps0)
        else:
            B0 = scaled_identity_inverse(entry.problem, x0, eps0)
    return entry, sched, x0, B0, xhat


def _integrator_config(cfg: RunConfig, ball: bool) -> IntegratorConfig:
    monitors = {"divergence"}
    if ball:
        monitors.add("ball")
    return IntegratorConfig(
        method=cfg.integrator_method,
        step_h=cfg.step_h,
        horizon_T=cfg.horizon_T,
        record_every=cfg.record_every,
        monitors=frozenset(monitors),
    )


def execute_run(cfg: RunConfig) -> tuple:
    """Run one configuration; returns (trajectory, entry, schedule, xhat)."""
    entry, sched, x0, B0, xhat = _build_run(cfg)
    icfg = _integrator_config(cfg, ball=cfg.ball_radius is not None)
    st0 = SolverState(t=0.0, x=x0, B=B0)
    traj = integrate(entry.problem, sched, st0, icfg, xhat=xhat, R=cfg.ball_radius)
    return traj, entry, sched, xhat


def cmd_run(cfg: RunConfig) -> int:
    try:
        traj, entry, sched, xhat = execute_run(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        write_trajectory_csv(cfg.out_trajectory, traj)
    except OSError as exc:
        print(f"error: cannot write {cfg.out_trajectory}: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    exit_code = _TERMINATION_EXIT[traj.termination]
    final_st, final_d = traj.records[-1]
    lines = [
        f"termination = {traj.termination}",
        f"exit_code = {exit_code}",
        f"records = {len(traj.records)}",
        f"final.t = {_fmt(final_st.t)}",
        f"final.eps = {_fmt(final_d.eps)}",
        f"final.residual_norm = {_fmt(final_d.residual_norm)}",
        f"final.err_norm = {_fmt(final_d.err_norm)}",
        f"final.B_norm = {_fmt(final_d.B_norm)}",
    ]
    lines.extend(_config_echo(cfg))
    if cfg.certify:
        if xhat is None:
            lines.append("certificate.error = problem has no known solution")
        else:
            entry2, sched2, x0, B0, _ = _build_run(cfg)
            if B0 is None:
                B0 = initial_inverse(entry2.problem, x0, sched2.eps(0.0))
            try:
                cert, _ = theory.certify_with_canonical_R(
                    entry2.problem, xhat, x0, sched2, B0, seed=cfg.seed
                )
                lines.extend(_certificate_lines(cert))
            except ValueError as exc:
                lines.append(f"certificate.error = {exc}")
    try:
        Path(cfg.out_summary).write_text("\n".join(lines) + "\n")
    except OSError as exc:
        print(f"error: cannot write {cfg.out_summary}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"{cfg.problem}: {traj.termination} after {len(traj.records)} records "
          f"-> {cfg.out_trajectory}")
    return exit_code


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
        print("error: compare needs the same problem and schedule on both sides",
              file=sys.stderr)
        return EXIT_CONFIG
    try:
        traj_d, *_ = execute_run(cfg_a)
        traj_c, *_ = execute_run(cfg_b)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    rows = min(len(traj_d.records), len(traj_c.records))
    lines = ["t,err_direct,err_coupled,resid_direct,resid_coupled"]
    for i in range(rows):
        st_d, d_d = traj_d.records[i]
        _, d_c = traj_c.records[i]
        lines.append(",".join(_fmt(v) for v in (
            st_d.t, d_d.err_norm, d_c.err_norm, d_d.residual_norm, d_c.residual_norm
        )))
    try:
        Path(out).write_text("\n".join(lines) + "\n")
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    fin_d = traj_d.records[-1][1]
    fin_c = traj_c.records[-1][1]
    ratio = None
    if fin_d.err_norm is not None and fin_d.err_norm > 0 and fin_c.err_norm is not None:
        ratio = fin_c.err_norm / fin_d.err_norm
    summary = [
        f"termination.direct = {traj_d.termination}",
        f"termination.coupled = {traj_c.termination}",
        f"final.err_direct = {_fmt(fin_d.err_norm)}",
        f"final.err_coupled = {_fmt(fin_c.err_norm)}",
        f"final.err_ratio_coupled_over_direct = {_fmt(ratio)}",
        f"final.resid_direct = {_fmt(fin_d.residual_norm)}",
        f"final.resid_coupled = {_fmt(fin_c.residual_norm)}",
    ]
    summary.extend(_config_echo(cfg_b))
    try:
        Path(out_summary).write_text("\n".join(summary) + "\n")
    except OSError as exc:
        print(f"error: cannot write {out_summary}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
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
    base = IntegratorConfig(method="rk4", step_h=0.1, horizon_T=1.0, record_every=10**9,
                            monitors=frozenset())
    steps = [0.1, 0.05, 0.025]
    errs = convergence_order(entry.problem, sched, st0, base, steps)
    ratios = [errs[i][1] / errs[i + 1][1] for i in range(len(errs) - 1)]
    ok = all(14.0 <= r <= 18.0 for r in ratios)
    results.append(("rk4 step-halving ratios in [14, 18]", ok,
                    "ratios = " + ", ".join(f"{r:.2f}" for r in ratios)))
    base_e = IntegratorConfig(method="euler", step_h=0.1, horizon_T=1.0,
                              record_every=10**9, monitors=frozenset())
    errs = convergence_order(entry.problem, sched, st0, base_e, steps)
    ratios = [errs[i][1] / errs[i + 1][1] for i in range(len(errs) - 1)]
    ok = all(1.8 <= r <= 2.2 for r in ratios)
    results.append(("euler step-halving ratios in [1.8, 2.2]", ok,
                    "ratios = " + ", ".join(f"{r:.2f}" for r in ratios)))
    return results


def cmd_verify(suite: str) -> int:
    batteries = {
        "lemmas": _verify_lemmas,
        "certificate": _verify_certificate,
        "order": _verify_order,
    }
    if suite not in batteries:
        print(f"error: unknown suite {suite!r}; choose from {sorted(batteries)}",
              file=sys.stderr)
        return EXIT_CONFIG
    results = batteries[suite]()
    width = max(len(name) for name, _, _ in results)
    all_ok = True
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        all_ok &= ok
        print(f"{status}  {name:<{width}}  {detail}")
    print(f"suite {suite}: {'all passed' if all_ok else 'FAILURES'}")
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


def cmd_sweep(cfg: RunConfig, param: str, values: list, seeds: list, out: str) -> int:
    from .harness import SweepSpec, sweep, write_sweep_csv

    spec = SweepSpec(base=cfg, param=param, values=values, seeds=seeds)
    rows = sweep(spec)
    try:
        write_sweep_csv(out, rows)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for row in rows:
        print(f"{param}={_fmt(row['param_value'])} seed={row['seed']}: "
              f"{row['termination']} final_err={_fmt(row['final_err'])}")
    print(f"sweep: {len(rows)} rows -> {out}")
    return EXIT_OK


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--problem")
    parser.add_argument("--method", choices=["direct", "coupled"])
    parser.add_argument("--schedule-c0", type=float, dest="schedule_c0")
    parser.add_argument("--schedule-c1", type=float, dest="schedule_c1")
    parser.add_argument("--schedule-a", type=float, dest="schedule_a")
    parser.add_argument("--integrator-method", choices=["euler", "rk4"],
                        dest="integrator_method")
    parser.add_argument("--step-h", type=float, dest="step_h")
    parser.add_argument("--horizon-T", type=float, dest="horizon_T")
    parser.add_argument("--record-every", type=int, dest="record_every")
    parser.add_argument("--b0-mode", choices=["exact_inverse", "scaled_identity"],
                        dest="b0_mode")
    parser.add_argument("--x0-scale", type=float, dest="x0_scale")
    parser.add_argument("--ball-radius", type=float, dest="ball_radius")
    parser.add_argument("--certify", action="store_const", const=True, default=None)
    parser.add_argument("--noise", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out-trajectory", dest="out_trajectory")
    parser.add_argument("--out-summary", dest="out_summary")


_RUN_FIELDS = [f.name for f in fields(RunConfig)]


def _config_from_args(args) -> RunConfig:
    overrides = {name: getattr(args, name, None) for name in _RUN_FIELDS}
    return load_config(args.config, overrides)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
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
    p_ver.add_argument("--suite", required=True,
                       choices=["lemmas", "certificate", "order"])

    p_swp = sub.add_parser("sweep", help="parameter sweep, one CSV row per run")
    _add_run_flags(p_swp)
    p_swp.add_argument("--param", default="eps0")
    p_swp.add_argument("--values", help="comma-separated values")
    p_swp.add_argument("--seeds", default="0", help="comma-separated seeds")
    p_swp.add_argument("--preset", choices=["eps0-range"],
                       help="eps0-range: the documented sensitivity range")
    p_swp.add_argument("--out", default="sweep.csv")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(_config_from_args(args))
        if args.command == "compare":
            cfg_a = _config_from_args(args)
            cfg_b = None
            if args.config_b:
                cfg_b = load_config(args.config_b, {})
            return cmd_compare(cfg_a, cfg_b, args.out,
                               cfg_a.out_summary)
        if args.command == "verify":
            return cmd_verify(args.suite)
        if args.command == "sweep":
            cfg = _config_from_args(args)
            param = args.param
            if args.preset == "eps0-range":
                param = "eps0"
                values = [0.001, 0.01, 0.1]
            elif args.values:
                values = [float(v) for v in args.values.split(",")]
            else:
                print("error: sweep needs --values or --preset", file=sys.stderr)
                return EXIT_CONFIG
            seeds = [int(s) for s in args.seeds.split(",")]
            return cmd_sweep(cfg, param, values, seeds, args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
