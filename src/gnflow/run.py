"""Run configuration and orchestration: the one place a run is set up.

A run is one ``RunConfig``: defaults, then a flat ``key = value`` file
with dotted keys ('#' starts a comment), then flag overrides. Each field
declares its config key and allowed choices, from which this module
derives its key and choice tables; it coerces each value by the declared
type of its field, resolves a configuration into the built run (gallery
entry, schedule, start point, initial inverse track, known solution) and
integrates it. Every configuration it cannot use raises ``ConfigError``.

A parameter sweep is a grid of such runs, one per value x seed, and
lives here too. The module also holds the output format that ``cli``
writes: numbers with 17 significant digits, so repeated runs with the
same config and seed write bit-identical files, and the one CSV writer.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import gallery, hilbert
from .flow import SolverState, initial_inverse, scaled_identity_inverse
from .integrator import IntegratorConfig, integrate
from .schedule import PowerSchedule


class ConfigError(Exception):
    """A configuration that cannot be run, or an output path that cannot be written."""


def _setting(default, key: str = "", choices: tuple = ()):
    """A RunConfig field whose config-file and summary key is ``key`` (its own
    name when empty) and whose value, when ``choices`` is given, is one of them."""
    return field(default=default, metadata={"key": key, "choices": choices})


@dataclass
class RunConfig:
    problem: str = "compliant-affine-8"
    method: str = _setting("coupled", choices=("direct", "coupled"))
    schedule_c0: float = _setting(0.1, "schedule.c0")
    schedule_c1: float = _setting(1.0, "schedule.c1")
    schedule_a: float = _setting(1.0, "schedule.a")
    integrator_method: str = _setting("rk4", "integrator.method", ("euler", "rk4"))
    step_h: float = _setting(0.01, "integrator.step_h")
    horizon_T: float = _setting(10.0, "integrator.horizon_T")
    record_every: int = _setting(10, "integrator.record_every")
    b0_mode: str = _setting("exact_inverse", choices=("exact_inverse", "scaled_identity"))
    x0_scale: float = 1.0
    ball_radius: Optional[float] = None
    certify: bool = False
    noise: float = 0.0
    seed: int = 0
    out_trajectory: str = _setting("trajectory.csv", "out.trajectory")
    out_summary: str = _setting("summary.txt", "out.summary")


#: config-file / summary key for each RunConfig field.
CONFIG_KEYS = {f.name: f.metadata.get("key") or f.name for f in fields(RunConfig)}
KEY_TO_FIELD = {v: k for k, v in CONFIG_KEYS.items()}

#: Allowed values of the fields that name a choice.
CHOICES = {f.name: f.metadata["choices"] for f in fields(RunConfig) if f.metadata.get("choices")}


_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def _on(raw: str) -> bool:
    """A boolean from 1/true/yes/on or 0/false/no/off, in any case."""
    try:
        return _BOOL_WORDS[raw.lower()]
    except KeyError:
        raise ValueError(f"expected 1/true/yes/on or 0/false/no/off, got {raw!r}") from None


#: Parser of a value, by the declared type of its RunConfig field (a string:
#: annotations are postponed in this module).
PARSERS = {"str": str, "int": int, "float": float, "Optional[float]": float, "bool": _on}
_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(field_name: str, raw: str):
    kind = _FIELD_TYPES[field_name]
    if kind == "Optional[float]" and raw.lower() in ("", "none"):
        return None
    return PARSERS[kind](raw)


def parse_config_file(path: str) -> dict:
    """Read ``key = value`` lines; '#' starts a comment."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in KEY_TO_FIELD:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            out[KEY_TO_FIELD[key]] = _coerce(KEY_TO_FIELD[key], raw.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return out


def load_config(config_path: Optional[str], overrides: dict) -> RunConfig:
    """Defaults, then config file, then flag overrides."""
    cfg = RunConfig()
    if config_path:
        cfg = replace(cfg, **parse_config_file(config_path))
    fixed = {k: v for k, v in overrides.items() if v is not None}
    return replace(cfg, **fixed)


def _check_seed(seed: int) -> None:
    """A seed draws the noise and the ball samples: an integer, by
    :func:`hilbert.integer`, and not negative, as numpy takes it."""
    number = hilbert.integer(seed)
    if number is None or number < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {hilbert.shown(seed)}")


def _build_run(cfg: RunConfig) -> tuple:
    """Resolve config into (entry, schedule, x0, B0-or-None, xhat)."""
    for name, allowed in CHOICES.items():
        if getattr(cfg, name) not in allowed:
            raise ConfigError(f"unknown {name} {getattr(cfg, name)!r}")
    _check_seed(cfg.seed)
    try:
        entry = gallery.get_entry(cfg.problem, noise=cfg.noise, noise_seed=cfg.seed)
        if cfg.ball_radius is not None:
            hilbert.positive("ball_radius", cfg.ball_radius)
        hilbert.finite("x0_scale", cfg.x0_scale)
    except (KeyError, ValueError) as exc:
        # args[0], not str(): str of a KeyError is the repr of its message
        raise ConfigError(exc.args[0]) from exc
    try:
        sched = PowerSchedule(c0=cfg.schedule_c0, c1=cfg.schedule_c1, a=cfg.schedule_a)
    except ValueError as exc:
        raise ConfigError(f"bad schedule: {exc}") from exc

    xhat = entry.xhat
    x0 = xhat + cfg.x0_scale * (entry.default_x0 - xhat)

    B0 = None
    if cfg.method == "coupled":
        eps0 = sched.eps(0.0)
        start = initial_inverse if cfg.b0_mode == "exact_inverse" else scaled_identity_inverse
        try:
            with np.errstate(all="ignore"):  # non-finite values raise, reported below
                B0 = start(entry.problem, x0, eps0)
        except (ValueError, hilbert.FactorizationError) as exc:
            raise ConfigError(f"cannot start from x0: {exc}") from exc
    return entry, sched, x0, B0, xhat


def _integrator_config(cfg: RunConfig) -> IntegratorConfig:
    monitors = {"divergence"}
    if cfg.ball_radius is not None:
        monitors.add("ball")
    try:
        return IntegratorConfig(
            method=cfg.integrator_method,
            step_h=cfg.step_h,
            horizon_T=cfg.horizon_T,
            record_every=cfg.record_every,
            monitors=frozenset(monitors),
        )
    except ValueError as exc:
        raise ConfigError(f"bad integrator settings: {exc}") from exc


def execute_run(cfg: RunConfig) -> tuple:
    """Build and integrate one configuration; returns (trajectory, built run).

    The built run is the (entry, schedule, x0, B0, xhat) that was
    integrated; B0 is None for the direct method. A start point whose
    initial inverse cannot be built, or whose first record cannot be
    measured, raises ConfigError.
    """
    icfg = _integrator_config(cfg)
    built = _build_run(cfg)
    entry, sched, x0, B0, xhat = built
    try:
        st0 = SolverState(t=0.0, x=x0, B=B0)
        traj = integrate(entry.problem, sched, st0, icfg, xhat=xhat, R=cfg.ball_radius)
    except ValueError as exc:  # a failing step ends the run inside integrate
        raise ConfigError(f"cannot start from x0: {exc}") from exc
    return traj, built


def fmt(value) -> str:
    """A float with 17 significant digits (round-trips exactly); None as empty."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_lines(path, lines: list) -> None:
    """Write newline-terminated lines; an unwritable path is a ConfigError."""
    try:
        Path(path).write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def write_csv(path, header, rows) -> None:
    """Write a header line, then one line per row of values formatted by ``fmt``.

    A cell holding a comma, quote or line break is quoted. An unwritable
    path is a ConfigError.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([fmt(v) for v in row] for row in rows)
    write_lines(path, [buf.getvalue().removesuffix("\n")])


SWEEP_COLUMNS = ("param_value", "seed", "final_err", "final_residual",
                 "termination", "wall_ms")

#: Dotted config keys a sweep may set directly: those of the float fields.
SWEEP_KEYS = tuple(CONFIG_KEYS[name] for name, kind in _FIELD_TYPES.items() if kind == "float")


def sweep(base: RunConfig, param: str, values, seeds=(0,)) -> list:
    """Run ``base`` with ``param`` set to each value, for each seed, in that order.

    ``param`` is "eps0" (sets eps(0) through the schedule's c0) or a
    dotted config key from ``SWEEP_KEYS``. "noise" is the level of a
    fixed, seed-deterministic perturbation of the problem's data, applied
    once when the problem is built. A run that fails is recorded, with
    its message, in its row's termination tag and never aborts the sweep.
    Returns one dict per run with ``SWEEP_COLUMNS`` keys.
    """
    if not values:
        raise ConfigError("sweep needs a nonempty value list")
    if not seeds:
        raise ConfigError("sweep needs a nonempty seed list")
    if param != "eps0" and param not in SWEEP_KEYS:
        raise ConfigError(
            f"unknown sweep parameter {param!r}; choose eps0 or one of {sorted(SWEEP_KEYS)}"
        )
    for seed in seeds:
        _check_seed(seed)
    if param == "noise":
        try:
            for value in values:
                hilbert.nonnegative("noise", value)
        except ValueError as exc:
            raise ConfigError(exc.args[0]) from None
    rows = []
    for value in values:
        if param == "eps0":
            # eps(0) = c0 * c1**(-a); move c0 so eps(0) hits the target.
            setting = {"schedule_c0": value * base.schedule_c1**base.schedule_a}
        else:
            setting = {KEY_TO_FIELD[param]: value}
        for seed in seeds:
            start = time.perf_counter()
            try:
                traj, _ = execute_run(replace(base, seed=seed, **setting))
                final = traj.records[-1][1]
                outcome = (final.err_norm, final.residual_norm, traj.termination)
            except Exception as exc:  # record, never abort the sweep
                outcome = (None, None, f"error:{type(exc).__name__}: {exc}")
            wall_ms = 1000.0 * (time.perf_counter() - start)
            rows.append(dict(zip(SWEEP_COLUMNS, (value, seed, *outcome, wall_ms))))
    return rows


def write_sweep_csv(path: str, rows: list) -> None:
    """One header line, then one line per row; raises ConfigError if unwritable.

    A failed row's termination tag carries the error message, which is
    quoted when it holds a comma, quote or line break.
    """
    write_csv(path, SWEEP_COLUMNS, ([row[c] for c in SWEEP_COLUMNS] for row in rows))
