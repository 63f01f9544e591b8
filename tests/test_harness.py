import numpy as np
import pytest

from gnflow.run import ConfigError, RunConfig
from gnflow.harness import SweepSpec, sweep, write_sweep_csv


def base_config(**kw):
    defaults = dict(problem="compliant-affine-4", horizon_T=2.0, record_every=50)
    defaults.update(kw)
    return RunConfig(**defaults)


class TestSweepSpec:
    def test_empty_values_rejected(self):
        with pytest.raises(ConfigError):
            SweepSpec(base=base_config(), param="eps0", values=[])

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigError, match="unknown sweep parameter"):
            SweepSpec(base=base_config(), param="gravity", values=[1.0])

    def test_negative_noise_rejected(self):
        with pytest.raises(ConfigError):
            SweepSpec(base=base_config(), param="noise", values=[-0.1])


class TestSweep:
    def test_documented_eps0_range_completes(self):
        spec = SweepSpec(base=base_config(), param="eps0",
                         values=[0.001, 0.01, 0.1])
        rows = sweep(spec)
        assert len(rows) == 3
        assert all(r["termination"] == "horizon_reached" for r in rows)
        assert all(r["final_err"] is not None for r in rows)

    def test_value_outside_documented_range_recorded(self):
        # larger eps(0) is allowed; the outcome is reported, not asserted
        spec = SweepSpec(base=base_config(), param="eps0", values=[1.0])
        rows = sweep(spec)
        assert len(rows) == 1
        assert rows[0]["termination"] in (
            "horizon_reached", "ball_exit", "divergence", "numerical_error")

    def test_noise_degrades_median_error(self):
        seeds = list(range(10))
        clean = sweep(SweepSpec(base=base_config(), param="noise",
                                values=[0.0], seeds=seeds))
        noisy = sweep(SweepSpec(base=base_config(), param="noise",
                                values=[1e-3], seeds=seeds))
        med_clean = np.median([r["final_err"] for r in clean])
        med_noisy = np.median([r["final_err"] for r in noisy])
        assert med_noisy >= med_clean - 1e-12

    def test_rows_seed_deterministic(self):
        spec = SweepSpec(base=base_config(), param="eps0",
                         values=[0.01, 0.1], seeds=[0, 1])
        r1 = sweep(spec)
        r2 = sweep(spec)
        for a, b in zip(r1, r2):
            assert a["final_err"] == b["final_err"]
            assert a["termination"] == b["termination"]

    def test_failures_recorded_not_raised(self):
        spec = SweepSpec(base=base_config(problem="feigenbaum-6"), param="noise",
                         values=[0.0, 1e-3])
        rows = sweep(spec)  # noise unsupported on this entry: second row errs
        assert rows[0]["termination"] == "horizon_reached"
        assert rows[1]["termination"].startswith("error:")

    def test_row_grid_is_values_times_seeds(self):
        spec = SweepSpec(base=base_config(), param="eps0",
                         values=[0.01, 0.1], seeds=[0, 1, 2])
        rows = sweep(spec)
        assert len(rows) == 6
        grid = {(r["param_value"], r["seed"]) for r in rows}
        assert grid == {(v, s) for v in (0.01, 0.1) for s in (0, 1, 2)}


class TestSweepCsv:
    def test_round_trip(self, tmp_path):
        spec = SweepSpec(base=base_config(), param="eps0", values=[0.1])
        rows = sweep(spec)
        out = tmp_path / "sweep.csv"
        write_sweep_csv(out, rows)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "param_value,seed,final_err,final_residual,termination,wall_ms"
        assert len(lines) == 2
