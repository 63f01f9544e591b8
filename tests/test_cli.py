import csv
import dataclasses
import math
import re
import warnings

import pytest

from gnflow import cli, flow, gallery, run


def run_cli(argv):
    return cli.main(argv)


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def read_summary(path):
    out = {}
    for line in path.read_text().splitlines():
        key, _, val = line.partition(" = ")
        out[key] = val
    return out


@pytest.fixture(autouse=True)
def in_tmp_path(tmp_path, monkeypatch):
    """Each test runs in its own directory, where the default output files
    (trajectory.csv, summary.txt, compare.csv) and relative config paths land."""
    monkeypatch.chdir(tmp_path)


class TestRun:
    def test_anchored_identity_exits_clean(self, tmp_path):
        traj = tmp_path / "trajectory.csv"
        summ = tmp_path / "summary.txt"
        code = run_cli(["run", "--problem", "identity-8", "--x0-scale", "0.0"])
        assert code == 0
        header, rows = read_csv(traj)
        assert header == list(cli.TRAJECTORY_COLUMNS)
        assert cli.TRAJECTORY_COLUMNS == (
            "t", "eps", "residual_norm", "err_norm", "B_norm", "lambda_norm",
            "inverse_residual", "D_norm",
        )
        err_col = header.index("err_norm")
        assert all(float(r[err_col]) <= 1e-12 for r in rows)
        summary = read_summary(summ)
        assert summary["termination"] == "horizon_reached"
        assert summary["config.problem"] == "identity-8"

    def test_compliant_defaults_converge(self, tmp_path):
        traj = tmp_path / "trajectory.csv"
        code = run_cli(["run", "--problem", "compliant-affine-8"])
        assert code == 0
        header, rows = read_csv(traj)
        err_col = header.index("err_norm")
        errs = [float(r[err_col]) for r in rows]
        # monotone decay after the initial transient
        tail = errs[len(errs) // 4:]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(tail, tail[1:]))

    def test_divergent_config_reports_event(self, tmp_path):
        # a huge start inside an expanding-error problem trips a monitor
        traj = tmp_path / "trajectory.csv"
        code = run_cli(["run", "--problem", "rank-deficient-8", "--x0-scale", "1e9",
                        "--schedule-c0", "10.0", "--ball-radius", "1.0"])
        assert code in (2, 3)
        header, rows = read_csv(traj)
        assert len(rows) >= 1  # final record present

    def test_unknown_problem_is_config_error(self, capsys):
        code = run_cli(["run", "--problem", "not-a-problem"])
        assert code == 1
        # the message itself, not the repr of a KeyError
        assert capsys.readouterr().err.startswith(
            "error: unknown problem label 'not-a-problem'; available: ")

    @pytest.mark.parametrize("radius", ["0", "-1.0"])
    def test_non_positive_ball_radius_is_config_error(self, capsys, radius):
        code = run_cli(["run", "--problem", "identity-8", "--ball-radius", radius])
        assert code == 1
        assert "ball_radius must be positive" in capsys.readouterr().err

    def test_unwritable_path_is_config_error(self, tmp_path):
        code = run_cli(["run", "--problem", "identity-8", "--out-trajectory",
                        str(tmp_path / "missing" / "t.csv")])
        assert code == 1

    def test_scaled_identity_start_mode(self, tmp_path):
        code = run_cli(["run", "--problem", "compliant-affine-4", "--b0-mode", "scaled_identity",
                        "--horizon-T", "2.0"])
        assert code == 0
        summary = read_summary(tmp_path / "summary.txt")
        assert summary["config.b0_mode"] == "scaled_identity"

    def test_certificate_in_summary(self, tmp_path):
        summ = tmp_path / "summary.txt"
        code = run_cli(["run", "--problem", "compliant-affine-4", "--certify", "--schedule-c0",
                        "20.0", "--schedule-c1", "200.0"])
        assert code == 0
        summary = read_summary(summ)
        assert summary["certificate.overall"] == "true"
        assert "certificate.k" in summary

    @pytest.mark.parametrize("flags", [["--method", "direct", "--certify"],
                                       ["--config", "run.cfg"]], ids=["flags", "config"])
    def test_direct_method_refuses_certify(self, tmp_path, capsys, flags):
        # the certificate is the coupled flow's, from the B0 it starts with;
        # the run does not start
        (tmp_path / "run.cfg").write_text("method = direct\ncertify = true\n")
        code = run_cli(["run", "--problem", "compliant-affine-4", "--horizon-T", "0.1", *flags])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: the direct method does not certify; certify is only for run with "
            "the coupled method\n")
        assert not (tmp_path / "trajectory.csv").exists()
        assert not (tmp_path / "summary.txt").exists()

    def test_noisy_data_certificate_refused(self, tmp_path):
        # xhat is no root of the noisy F, and nothing else the certificate
        # computes depends on F's values: it printed overall = true here, and
        # a long run then left the ball
        code = run_cli(["run", "--problem", "compliant-quadratic-4", "--method", "coupled",
                        "--certify", "--noise", "1e-3", "--schedule-c0", "20",
                        "--schedule-c1", "200", "--horizon-T", "0.1"])
        summary = read_summary(tmp_path / "summary.txt")
        assert code == int(summary["exit_code"]) == 0
        assert "certificate.overall" not in summary
        assert re.fullmatch(r"xhat is not a root: \|\|F\(xhat\)\|\| = \S+ > \S+",
                            summary["certificate.error"])

    def test_certificate_keys_in_order(self, tmp_path):
        summ = tmp_path / "summary.txt"
        assert run_cli(["run", "--problem", "compliant-affine-4", "--certify", "--schedule-c0",
                        "20", "--schedule-c1", "200"]) == 0
        keys = [line.partition(" = ")[0] for line in summ.read_text().splitlines()]
        assert [k for k in keys if k.startswith("certificate.")] == [
            "certificate." + k for k in (
                "N1", "N2", "b", "eps0", "B0_norm", "Lambda0_norm", "k", "R",
                "lambda", "w_norm", "source_residual",
                "check.contraction", "check.radius", "check.source_norm",
                "check.initial_offset", "check.source_residual",
                "overall", "notes", "bounds_source",
            )
        ]

    @pytest.mark.parametrize("label, source", [("compliant-quadratic-4", "analytic"),
                                               ("compliant-affine-4", "constant")])
    def test_certificate_names_its_bounds_source(self, tmp_path, label, source):
        assert run_cli(["run", "--problem", label, "--certify", "--schedule-c0", "20",
                        "--schedule-c1", "200", "--horizon-T", "0.1"]) == 0
        lines = (tmp_path / "summary.txt").read_text().splitlines()
        assert lines[-1] == f"certificate.bounds_source = {source}"
        assert lines[-2].startswith(("certificate.overall = ", "certificate.notes = "))


class TestConfigFile:
    def test_file_plus_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# schedule block\n"
            "problem = identity-8\n"
            "schedule.c0 = 0.05\n"
            "integrator.horizon_T = 2.0\n"
        )
        parsed = cli.load_config(str(cfg), {"schedule_c0": 0.2})
        assert parsed.problem == "identity-8"
        assert parsed.schedule_c0 == 0.2  # flag wins
        assert parsed.horizon_T == 2.0

    def test_key_and_choice_tables(self):
        # derived from the RunConfig declaration; golden against the tables
        # that were written out by hand beside it
        assert run.CONFIG_KEYS == {
            "problem": "problem", "method": "method", "schedule_c0": "schedule.c0",
            "schedule_c1": "schedule.c1", "schedule_a": "schedule.a",
            "integrator_method": "integrator.method", "step_h": "integrator.step_h",
            "horizon_T": "integrator.horizon_T", "record_every": "integrator.record_every",
            "b0_mode": "b0_mode", "x0_scale": "x0_scale", "ball_radius": "ball_radius",
            "certify": "certify", "noise": "noise", "seed": "seed",
            "out_trajectory": "out.trajectory", "out_summary": "out.summary",
        }
        assert list(run.CONFIG_KEYS) == [f.name for f in dataclasses.fields(run.RunConfig)]
        assert run.KEY_TO_FIELD == {key: name for name, key in run.CONFIG_KEYS.items()}
        assert run.CHOICES == {
            "method": ("direct", "coupled"),
            "integrator_method": ("euler", "rk4"),
            "b0_mode": ("exact_inverse", "scaled_identity"),
        }
        assert list(run.CHOICES) == ["method", "integrator_method", "b0_mode"]

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("no_such_key = 1\n")
        with pytest.raises(cli.ConfigError, match="unknown config key"):
            cli.load_config(str(cfg), {})

    @pytest.mark.parametrize("raw, value", [
        ("1", True), ("TRUE", True), ("Yes", True), ("on", True),
        ("0", False), ("False", False), ("NO", False), ("off", False),
    ])
    def test_boolean_words(self, tmp_path, raw, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"certify = {raw}\n")
        assert cli.load_config(str(cfg), {}).certify is value

    def test_misspelt_boolean_is_config_error(self, tmp_path, capsys):
        # it used to read as false: the run went ahead without a certificate
        (tmp_path / "run.cfg").write_text("problem = identity-8\ncertify = ture\n")
        assert run_cli(["run", "--config", "run.cfg"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: run.cfg:2: bad value for 'certify'") and "'ture'" in err

    def test_boolean_flag_takes_no_value(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--problem", "identity-8", "--certify=ture"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "argument --certify" in err and "'ture'" in err

    @pytest.mark.parametrize("raw", ["none", "None", ""])
    def test_ball_radius_none(self, tmp_path, raw):
        # a config file can switch the ball monitor off again
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"ball_radius = 0.5\nball_radius = {raw}\n")
        assert cli.load_config(str(cfg), {}).ball_radius is None

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem identity-8\n")
        with pytest.raises(cli.ConfigError, match="key = value"):
            cli.load_config(str(cfg), {})


class TestDeterminism:
    def test_bit_identical_csv(self, tmp_path):
        args = lambda i: ["run", "--problem", "compliant-affine-4", "--seed", "3",
                          "--horizon-T", "2.0", "--out-trajectory", f"t{i}.csv"]
        assert run_cli(args(0)) == 0
        assert run_cli(args(1)) == 0
        assert (tmp_path / "t0.csv").read_bytes() == (tmp_path / "t1.csv").read_bytes()


class TestCompare:
    def test_equivalence_regime_affine(self, tmp_path):
        # a near-frozen schedule keeps the tracked inverse locked to the
        # factorized one, so the two methods coincide
        out = tmp_path / "compare.csv"
        code = run_cli(["compare", "--problem", "compliant-affine-4", "--schedule-c0", "100000",
                        "--schedule-c1", "1000000", "--horizon-T", "5.0", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["t", "err_direct", "err_coupled", "resid_direct",
                          "resid_coupled"]
        for r in rows:
            assert abs(float(r[1]) - float(r[2])) <= 1e-6

    def test_late_horizon_reports_ratio(self, tmp_path):
        summ = tmp_path / "summary.txt"
        code = run_cli(["compare", "--problem", "compliant-affine-8", "--horizon-T", "30.0"])
        assert code == 0
        summary = read_summary(summ)
        assert float(summary["final.err_direct"]) > 0
        assert float(summary["final.err_coupled"]) > 0
        assert summary["final.err_ratio_coupled_over_direct"] != ""

    def test_mismatched_problems_rejected(self, tmp_path):
        other = tmp_path / "b.cfg"
        other.write_text("problem = identity-8\n")
        code = run_cli(["compare", "--problem", "compliant-affine-8", "--config-b", str(other)])
        assert code == 1

    def test_matching_config_pair_accepted(self, tmp_path):
        other = tmp_path / "b.cfg"
        other.write_text(
            "problem = identity-8\n"
            "integrator.horizon_T = 2.0\n"
        )
        code = run_cli(["compare", "--problem", "identity-8", "--horizon-T", "2.0", "--config-b",
                        str(other)])
        assert code == 0

    def test_mismatched_settings_named(self, tmp_path, capsys):
        # the flags set only the direct side; the coupled side would run on
        # other data, from another start, over another horizon
        other = tmp_path / "b.cfg"
        other.write_text("problem = identity-8\nnoise = 0.5\nx0_scale = 3\n")
        out = tmp_path / "compare.csv"
        code = run_cli(["compare", "--problem", "identity-8", "--horizon-T", "0.5",
                        "--config-b", str(other), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == ("error: compare needs the same settings on both sides; "
                       "they differ in noise, x0_scale, integrator.horizon_T\n")
        assert not out.exists()

    @pytest.mark.parametrize("flags, config_b", [
        (["--certify"], None),
        ([], "problem = identity-8\ncertify = true\n"),
    ])
    def test_certify_rejected(self, tmp_path, capsys, flags, config_b):
        if config_b is not None:
            (tmp_path / "b.cfg").write_text(config_b)
            flags = flags + ["--config-b", str(tmp_path / "b.cfg")]
        out = tmp_path / "compare.csv"
        code = run_cli(["compare", "--problem", "identity-8", "--horizon-T", "0.1", *flags,
                        "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "compare does not certify" in err
        assert not out.exists()


class TestX0Scale:
    def test_scale_moves_start_along_default_offset(self, tmp_path):
        def final_err(scale):
            assert run_cli(["run", "--problem", "identity-8", "--x0-scale", str(scale),
                            "--horizon-T", "1.0"]) == 0
            return float(read_summary(tmp_path / "summary.txt")["final.err_norm"])

        # doubling the start offset doubles the (linear) trajectory error
        assert final_err(2.0) == pytest.approx(2.0 * final_err(1.0), rel=1e-9)

    def test_scale_whose_squares_overflow_keeps_a_finite_error(self, tmp_path):
        # the error's sum of squares overflows: final.err_norm read inf
        assert run_cli(["run", "--problem", "identity-8", "--x0-scale", "1e160",
                        "--horizon-T", "0.1"]) == 3
        summary = read_summary(tmp_path / "summary.txt")
        assert summary["termination"] == "divergence"
        assert math.isfinite(float(summary["final.err_norm"]))


class TestVerify:
    def test_order_suite_passes(self, capsys):
        assert run_cli(["verify", "--suite", "order"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_lemmas_suite_passes(self, capsys):
        assert run_cli(["verify", "--suite", "lemmas"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_certificate_suite_passes(self, capsys):
        assert run_cli(["verify", "--suite", "certificate"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        # each certificate row is certified at the build seed, so its R is
        # the suite's R, the radius of the ball the run is monitored in
        printed = dict(re.findall(r"PASS  (\S+): certificate overall +R = (\S+),", out))
        assert printed == {label: f"{R:.6g}" for label, _, _, _, R, _ in gallery.compliant_suite()}

    def test_unknown_suite(self):
        with pytest.raises(SystemExit):
            run_cli(["verify", "--suite", "everything"])


class TestSweep:
    def test_explicit_values(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(["sweep", "--problem", "compliant-affine-4", "--param", "eps0", "--values",
                        "0.01,0.1", "--seeds", "0", "--horizon-T", "2.0", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["param_value", "seed", "final_err", "final_residual",
                          "termination", "wall_ms"]
        assert len(rows) == 2
        assert all(r[4] == "horizon_reached" for r in rows)

    def test_failed_row_keeps_its_reason(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run_cli(["sweep", "--problem", "identity-8", "--param", "integrator.step_h",
                        "--values", "0,0.1", "--horizon-T", "1.0", "--out", str(out)])
        assert code == 0
        with out.open(newline="") as fh:
            header, *rows = list(csv.reader(fh))
        termination = header.index("termination")
        assert len(rows) == 2 and all(len(r) == len(header) for r in rows)
        assert rows[0][termination].startswith("error:ConfigError: ")
        assert "step_h must be positive" in rows[0][termination]
        assert rows[1][termination] == "horizon_reached"
        assert "step_h must be positive" in capsys.readouterr().out

    def test_certify_rejected(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run_cli(["sweep", "--problem", "identity-8", "--certify", "--param", "eps0",
                        "--values", "0.1", "--horizon-T", "0.1", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "sweep does not certify" in err
        assert not out.exists()

    def test_eps0_preset(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(["sweep", "--problem", "compliant-affine-4", "--preset", "eps0-range",
                        "--horizon-T", "1.0", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert [float(r[0]) for r in rows] == [0.001, 0.01, 0.1]
        assert all(r[1] == "0" and r[4] == "horizon_reached" for r in rows)

    def test_needs_values_or_preset(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run_cli(["sweep", "--problem", "identity-8", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: sweep needs --values or --preset\n"
        assert not out.exists()


class TestUsageErrors:
    # argparse's own exit code 2 is the documented ball-exit code
    @pytest.mark.parametrize("argv", [
        ["run", "--step-h", "abc"],
        ["run", "--method", "foo"],
        ["sweep", "--values", "a"],
        ["sweep", "--preset", "eps0-range", "--seeds", "x"],
    ])
    def test_usage_error_is_config_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: gnflow ") and f"gnflow {argv[0]}: error:" in err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--help"])
        assert exc.value.code == 0


class TestBadValues:
    @pytest.mark.parametrize("flags, config, message", [
        pytest.param(["--step-h", "0"], None, "step_h must be positive",
                     id="flags0-None-step_h must be positive"),
        pytest.param(["--record-every", "0"], None, "record_every must be >= 1",
                     id="flags1-None-record_every must be >= 1"),
        pytest.param(["--step-h", "0.5", "--horizon-T", "0.1"], None,
                     "horizon_T must be at least one step",
                     id="flags2-None-horizon_T must be at least one step"),
        pytest.param([], "integrator.method = foo\n", "unknown method 'foo'",
                     id="flags3-integrator.method = foo\n-unknown method 'foo'"),
        # argparse checks a choice given as a flag; one from a config file is
        # checked when the run is built
        pytest.param([], "method = foo\n", "error: unknown method 'foo'",
                     id="config-unknown-method"),
        pytest.param([], "b0_mode = bar\n", "error: unknown b0_mode 'bar'",
                     id="config-unknown-b0_mode"),
        pytest.param([], "problem = identity-8\nseed = abc\n", "run.cfg:2: bad value for 'seed'",
                     id="flags4-problem = identity-8\nseed = abc\n"
                        "-run.cfg:2: bad value for 'seed'"),
        pytest.param(["--config", "missing.cfg"], None, "cannot read missing.cfg",
                     id="flags5-None-cannot read missing.cfg"),
        pytest.param(["--x0-scale", "nan"], None, "x0_scale must be finite",
                     id="flags6-None-x0_scale must be finite"),
        pytest.param(["--horizon-T", "nan"], None, "horizon_T must be finite",
                     id="flags7-None-horizon_T must be finite"),
        pytest.param(["--horizon-T", "inf"], None, "horizon_T must be finite",
                     id="flags8-None-horizon_T must be finite"),
        pytest.param(["--step-h", "inf"], None, "step_h must be positive and finite",
                     id="flags9-None-step_h must be positive and finite"),
        pytest.param(["--schedule-c0", "inf"], None, "c0 must be positive and finite",
                     id="flags10-None-c0 must be positive and finite"),
        pytest.param(["--schedule-c1", "inf"], None, "c1 must be positive and finite",
                     id="flags11-None-c1 must be positive and finite"),
        pytest.param(["--noise", "-0.1"], None, "noise must be nonnegative and finite",
                     id="flags12-None-noise must be nonnegative and finite"),
        pytest.param(["--problem", "autoconv-16", "--noise", "-0.1"], None,
                     "noise must be nonnegative and finite",
                     id="flags13-None-noise must be nonnegative and finite"),
        pytest.param(["--problem", "compliant-affine-8", "--noise", "-0.1"], None,
                     "noise must be nonnegative and finite",
                     id="flags14-None-noise must be nonnegative and finite"),
        pytest.param(["--problem", "compliant-affine-8", "--noise", "nan"], None,
                     "noise must be nonnegative and finite",
                     id="flags15-None-noise must be nonnegative and finite"),
        pytest.param(["--problem", "autoconv-16", "--noise", "inf"], None,
                     "noise must be nonnegative and finite",
                     id="flags16-None-noise must be nonnegative and finite"),
        pytest.param(["--ball-radius", "inf"], None,
                     "error: ball_radius must be positive and finite",
                     id="flags17-None-error: ball_radius must be positive and finite"),
        pytest.param(["--ball-radius", "nan"], None,
                     "error: ball_radius must be positive and finite",
                     id="flags18-None-error: ball_radius must be positive and finite"),
        pytest.param(["--horizon-T", "1e300", "--step-h", "1e-10"], None,
                     "horizon_T must hold a finite number of steps",
                     id="flags19-None-horizon_T must hold a finite number of steps"),
    ])
    def test_reported_as_config_error(self, tmp_path, capsys, flags, config, message):
        if config is not None:
            (tmp_path / "run.cfg").write_text(config)
            flags = flags + ["--config", "run.cfg"]
        code = run_cli(["run", "--problem", "identity-8", *flags])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


class TestNegativeSeed:
    """numpy draws no stream from a negative seed; every command names the setting."""

    @pytest.mark.parametrize("argv", [
        pytest.param(["run", "--problem", "identity-8", "--seed", "-1", "--noise", "0.1"],
                     id="run-noise"),
        pytest.param(["run", "--problem", "compliant-affine-4", "--certify", "--seed", "-1"],
                     id="run-certify"),
        pytest.param(["compare", "--problem", "identity-8", "--seed", "-1"], id="compare"),
        pytest.param(["sweep", "--problem", "identity-8", "--param", "noise", "--values", "0.1",
                      "--seeds", "0,-1"], id="sweep"),
    ])
    def test_reported_as_config_error(self, tmp_path, capsys, argv):
        code = run_cli(argv)
        assert code == 1
        assert capsys.readouterr().err == "error: seed must be a nonnegative integer, got -1\n"
        assert not any(tmp_path.iterdir())


class TestUnusableStart:
    """A start point whose initial inverse cannot be built, or whose first
    record cannot be measured, is a configuration error, not a traceback."""

    # At --x0-scale 1e4 the outcome depends on the BLAS kernel: some potrf
    # kernels fail on the lost shift, others factorize and the run ends in
    # numerical_error. At 1e5 every kernel reports the lost shift.
    @pytest.mark.parametrize("command, flags, message", [
        pytest.param("run", ["--x0-scale", "1e5"], "lost in rounding", id="run-B0"),
        pytest.param("compare", ["--x0-scale", "1e5"], "lost in rounding", id="compare-B0"),
        pytest.param("run", ["--method", "direct", "--x0-scale", "1e100"],
                     "F returned a non-finite entry", id="run-direct-F"),
        pytest.param("run", ["--x0-scale", "1e100"], "jacobian returned a non-finite entry",
                     id="run-coupled-jacobian"),
    ])
    def test_reported_as_config_error(self, capsys, command, flags, message):
        with warnings.catch_warnings(record=True) as emitted:
            warnings.simplefilter("always")
            code = run_cli([command, "--problem", "feigenbaum-6", "--horizon-T", "0.1", *flags])
        assert code == 1
        assert [str(w.message) for w in emitted] == []
        err = capsys.readouterr().err
        assert err.startswith("error: cannot start from x0: ") and message in err
        assert err.count("\n") == 1

    def test_scaled_identity_square_that_overflows(self, capsys):
        # ||F'(x0)||**2 raised OverflowError, and the command ended in a traceback
        code = run_cli(["run", "--problem", "autoconv-16", "--b0-mode", "scaled_identity",
                        "--x0-scale", "1e160", "--horizon-T", "0.1"])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: cannot start from x0: ||F'(x0)||^2 overflows, with ||F'(x0)|| = ")

    def test_certificate_error_leaks_no_warning(self, tmp_path):
        # the coupled run starts; the certificate's radius numerator at this
        # x0 is negative, which is reported, not warned about. It is decided
        # before the ball samples, whose Jacobian overflows here too (that
        # error is pinned in test_theory's TestCertifyWithCanonicalR)
        with warnings.catch_warnings(record=True) as emitted:
            warnings.simplefilter("always")
            code = run_cli(["run", "--problem", "feigenbaum-6", "--method", "coupled",
                            "--certify", "--x0-scale", "3e3", "--horizon-T", "0.1"])
        assert [str(w.message) for w in emitted] == []
        summary = read_summary(tmp_path / "summary.txt")
        assert code == int(summary["exit_code"])
        assert summary["certificate.error"].startswith(
            "constants too large for a convergence certificate (radius numerator -")

    def test_sweep_row_tagged(self, tmp_path):
        # 1e5, not 1e4: see the kernel note above test_reported_as_config_error
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--problem", "feigenbaum-6", "--param", "x0_scale",
                        "--values", "1e5", "--horizon-T", "0.1", "--out", str(out)]) == 0
        with out.open(newline="") as fh:
            header, row = list(csv.reader(fh))
        assert row[header.index("termination")].startswith(
            "error:ConfigError: cannot start from x0: shift 0.1*I is lost in rounding")


class TestBuildOnce:
    def test_certify_reuses_built_run(self, tmp_path, record_calls):
        gallery.get_entry("compliant-affine-4")  # build the cached instance beforehand
        calls = record_calls(gallery.get_entry, flow.initial_inverse)
        code = run_cli(["run", "--problem", "compliant-affine-4", "--method", "coupled",
                        "--certify", "--schedule-c0", "20", "--schedule-c1", "200"])
        assert code == 0
        assert read_summary(tmp_path / "summary.txt")["certificate.overall"] == "true"
        assert (len(calls["get_entry"]), len(calls["initial_inverse"])) == (1, 1)


#: One flag per RunConfig field, plus --config and --help.
RUN_FLAGS = {
    "-h", "--help", "--config", "--problem", "--method", "--schedule-c0", "--schedule-c1",
    "--schedule-a", "--integrator-method", "--step-h", "--horizon-T", "--record-every",
    "--b0-mode", "--x0-scale", "--ball-radius", "--certify", "--noise", "--seed",
    "--out-trajectory", "--out-summary",
}


class TestFlags:
    @pytest.mark.parametrize("command, extra", [
        ("run", set()),
        ("compare", {"--config-b", "--out"}),
        ("sweep", {"--param", "--values", "--seeds", "--preset", "--out"}),
    ])
    def test_option_strings_unchanged(self, capsys, command, extra):
        with pytest.raises(SystemExit) as exc:
            run_cli([command, "--help"])
        assert exc.value.code == 0
        flags = set(re.findall(r"(?<![\w-])--?[A-Za-z][\w-]*", capsys.readouterr().out))
        assert flags == RUN_FLAGS | extra
