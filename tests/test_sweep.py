"""Parameter sweeps: ``run.sweep`` and its CSV."""

import numpy as np
import pytest

from gnflow import run
from gnflow.run import ConfigError, RunConfig, sweep, write_sweep_csv


def base_config(**kw):
    defaults = dict(problem="compliant-affine-4", horizon_T=2.0, record_every=50)
    defaults.update(kw)
    return RunConfig(**defaults)


class TestSweepArguments:
    """The arguments that specify a sweep, checked before any run."""

    def test_empty_values_rejected(self):
        with pytest.raises(ConfigError):
            sweep(base_config(), "eps0", [])
        with pytest.raises(ConfigError, match="nonempty seed list"):
            sweep(base_config(), "eps0", [0.1], seeds=[])

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigError, match="unknown sweep parameter"):
            sweep(base_config(), "gravity", [1.0])
        assert set(run.SWEEP_KEYS) == {
            "noise", "schedule.c0", "schedule.c1", "schedule.a",
            "integrator.step_h", "integrator.horizon_T", "x0_scale"}

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match=r"^seed must be a nonnegative integer, got -3$"):
            sweep(base_config(), "eps0", [0.1], seeds=[0, -3])

    def test_negative_noise_rejected(self):
        for level in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                sweep(base_config(), "noise", [level])


class TestSweep:
    def test_documented_eps0_range_completes(self):
        rows = sweep(base_config(), "eps0", [0.001, 0.01, 0.1])
        assert len(rows) == 3
        assert all(r["termination"] == "horizon_reached" for r in rows)
        assert all(r["final_err"] is not None for r in rows)

    def test_value_outside_documented_range_recorded(self):
        # larger eps(0) is allowed; the outcome is reported, not asserted
        rows = sweep(base_config(), "eps0", [1.0])
        assert len(rows) == 1
        assert rows[0]["termination"] in (
            "horizon_reached", "ball_exit", "divergence", "numerical_error")

    def test_noise_degrades_median_error(self):
        seeds = list(range(10))
        clean = sweep(base_config(), "noise", [0.0], seeds)
        noisy = sweep(base_config(), "noise", [1e-3], seeds)
        med_clean = np.median([r["final_err"] for r in clean])
        med_noisy = np.median([r["final_err"] for r in noisy])
        assert med_noisy >= med_clean - 1e-12

    def test_rows_seed_deterministic(self):
        args = (base_config(), "eps0", [0.01, 0.1], [0, 1])
        r1 = sweep(*args)
        r2 = sweep(*args)
        for a, b in zip(r1, r2):
            assert a["final_err"] == b["final_err"]
            assert a["termination"] == b["termination"]

    def test_failures_recorded_not_raised(self):
        # the second start overflows the renormalization Jacobian on every
        # BLAS kernel: that row errs, and the sweep goes on
        rows = sweep(base_config(problem="feigenbaum-6"), "x0_scale", [1.0, 1e100])
        assert rows[0]["termination"] == "horizon_reached"
        assert rows[1]["termination"].startswith("error:")
        assert "jacobian returned a non-finite entry" in rows[1]["termination"]

    def test_row_grid_is_values_times_seeds(self):
        rows = sweep(base_config(), "eps0", [0.01, 0.1], [0, 1, 2])
        assert len(rows) == 6
        grid = {(r["param_value"], r["seed"]) for r in rows}
        assert grid == {(v, s) for v in (0.01, 0.1) for s in (0, 1, 2)}


class TestSweepCsv:
    def test_round_trip(self, tmp_path):
        rows = sweep(base_config(), "eps0", [0.1])
        out = tmp_path / "sweep.csv"
        write_sweep_csv(out, rows)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "param_value,seed,final_err,final_residual,termination,wall_ms"
        assert len(lines) == 2
