"""Tests of the benchmark itself: workloads, metric names, seeding and tracing.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gnflow  # noqa: E402
import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.WORKLOADS)


@pytest.fixture
def tiny(monkeypatch):
    """Runs a workload with one set-up, one warm-up and one timed round."""
    monkeypatch.setattr(bench_run, "MIN_JOBS", 1)
    monkeypatch.setattr(bench_run, "SETUP_REPEATS", 1)
    return lambda name, trace: bench_run.run(name, seed=3, seconds=0.0, trace=trace)


def _fingerprint(obj) -> bytes:
    if isinstance(obj, np.ndarray):
        return obj.dtype.str.encode() + obj.tobytes()
    if isinstance(obj, dict):
        return b"{" + b",".join(k.encode() + b":" + _fingerprint(v)
                                for k, v in sorted(obj.items())) + b"}"
    if isinstance(obj, (list, tuple)):
        return b"[" + b",".join(_fingerprint(v) for v in obj) + b"]"
    return repr(obj).encode()


def test_spec_lists_the_three_workloads():
    assert sorted(w["name"] for w in SPEC["workloads"]) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_untraced_smoke_reports_every_end_to_end_metric(name, tiny):
    result, lines, tracer = tiny(name, trace=False)
    assert tracer is None
    assert result["correct"] and result["failed"] == 0, lines
    assert result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_smoke_reports_every_per_layer_metric(name, tiny):
    result, lines, tracer = tiny(name, trace=True)
    assert result["correct"] and result["failed"] == 0, lines
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert tracing.find_wrappers() == []
    assert len(tracer.start) > 0
    calls = {k: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")}
    if name == "direct-nonlinear":
        assert calls["hilbert.op_norm.calls"] == 0
        assert calls["flow.coupled_rhs.calls"] == 0
        assert calls["problem.fd_jacobian.calls"] > 0
    if name == "coupled-certified":
        assert calls["flow.coupled_rhs.calls"] == 4 * calls["integrator.step.calls"]
        assert calls["flow.diagnostics.calls"] > 0
    if name == "certify-build":
        assert calls["integrator.step.calls"] == 0
        assert calls["theory.gronwall_check.calls"] == workloads.GRONWALL_JOBS
        assert result["metrics"]["gallery.certify_attempts_per_instance"]["value"] > 1


@pytest.mark.parametrize("name", NAMES)
def test_inputs_follow_the_seed(name):
    inputs = workloads.WORKLOADS[name].inputs
    assert _fingerprint(inputs(5)) == _fingerprint(inputs(5))
    assert _fingerprint(inputs(5)) != _fingerprint(inputs(6))


def test_self_time_on_a_synthetic_span_tree():
    # 0 [0,100] has children 1 [10,30], 3 [40,70] and 4 [60,90], which
    # overlap, and 5 [95,120], which sticks out; 2 [15,20] is a grandchild.
    start = [0, 10, 15, 40, 60, 95]
    end = [100, 30, 20, 70, 90, 120]
    parent = [-1, 0, 1, 0, 0, 0]
    assert tracing.self_times(start, end, parent) == [25, 15, 5, 30, 30, 25]


def test_tracer_sees_directly_imported_names_and_restores_them():
    originals = {
        "gnflow.integrate": gnflow.integrate,
        "flow.jacobian": gnflow.flow.jacobian,
        "integrator.step": gnflow.integrator.step,
        "PowerSchedule.eps": vars(gnflow.PowerSchedule)["eps"],
    }
    entry = gnflow.get_entry("autoconv-16")
    st0 = gnflow.SolverState(t=0.0, x=entry.default_x0)
    cfg = gnflow.IntegratorConfig(step_h=0.1, horizon_T=0.2, record_every=10**9)
    sched = gnflow.default_schedule()
    with pytest.raises(KeyError):
        with tracing.Tracer() as tracer:
            assert gnflow.integrate is not originals["gnflow.integrate"]
            gnflow.integrate(entry.problem, sched, st0, cfg)
            raise KeyError("leave the block by an exception")
    assert tracing.find_wrappers() == []
    assert gnflow.integrate is originals["gnflow.integrate"]
    assert gnflow.flow.jacobian is originals["flow.jacobian"]
    assert gnflow.integrator.step is originals["integrator.step"]
    assert vars(gnflow.PowerSchedule)["eps"] is originals["PowerSchedule.eps"]

    stats = tracer.layer_stats()
    assert stats["integrator.integrate"]["calls"] == 1
    assert stats["integrator.step"]["calls"] == 2
    assert stats["flow.direct_rhs"]["calls"] == 8
    # direct_rhs reaches jacobian and eval_F through flow's own globals.
    assert stats["problem.jacobian"]["calls"] == 8
    assert tracer.counts["schedule.PowerSchedule.eps"] > 0
    top = stats["integrator.integrate"]
    assert 0 < top["self_ms"] < top["total_ms"]
    assert sum(s["self_ms"] for s in stats.values()) == pytest.approx(top["total_ms"])


def test_without_package_source_the_command_fails(tmp_path):
    import subprocess

    (tmp_path / "bench").mkdir()
    for f in ("run.py", "workloads.py", "tracing.py", "reference.py"):
        (tmp_path / "bench" / f).write_text((BENCH / f).read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 2
    assert "no package source" in out.stderr
    assert out.stdout == ""
