"""Experiment batteries: parameter sweeps with optional data noise.

Each sweep row is one independent run (value x seed), configured and
built by ``gnflow.run``; failures are recorded, with their message, in
the row's termination tag and never abort the sweep. Noise is a fixed,
seed-deterministic perturbation of the problem's data vector applied
once at problem construction, not re-sampled per evaluation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from .run import KEY_TO_FIELD, ConfigError, RunConfig, execute_run, write_csv

SWEEP_COLUMNS = ("param_value", "seed", "final_err", "final_residual",
                 "termination", "wall_ms")

#: Dotted config keys a sweep may set directly.
SWEEP_KEYS = ("noise", "schedule.c0", "schedule.c1", "schedule.a",
              "integrator.step_h", "integrator.horizon_T", "x0_scale")


@dataclass
class SweepSpec:
    """One swept parameter over a base configuration.

    ``param`` is "eps0" (sets eps(0) through the schedule's c0), "noise"
    (data perturbation level), or a dotted config key from
    ``SWEEP_KEYS``. Rows are produced for every value x seed pair.
    """

    base: RunConfig
    param: str
    values: list
    seeds: list = field(default_factory=lambda: [0])

    def __post_init__(self):
        if not self.values:
            raise ConfigError("sweep needs a nonempty value list")
        if self.param != "eps0" and self.param not in SWEEP_KEYS:
            raise ConfigError(
                f"unknown sweep parameter {self.param!r}; "
                f"choose eps0 or one of {sorted(SWEEP_KEYS)}"
            )
        if self.param == "noise" and any(v < 0 for v in self.values):
            raise ConfigError("noise levels must be nonnegative")


def _apply_param(cfg: RunConfig, param: str, value: float) -> RunConfig:
    if param == "eps0":
        # eps(0) = c0 * c1**(-a); move c0 so eps(0) hits the target.
        return replace(cfg, schedule_c0=value * cfg.schedule_c1**cfg.schedule_a)
    return replace(cfg, **{KEY_TO_FIELD[param]: value})


def sweep(spec: SweepSpec) -> list:
    """Run the grid; returns one dict per run with SWEEP_COLUMNS keys."""
    rows = []
    for value in spec.values:
        for seed in spec.seeds:
            cfg = _apply_param(replace(spec.base, seed=seed), spec.param, value)
            start = time.perf_counter()
            try:
                traj, _ = execute_run(cfg)
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
