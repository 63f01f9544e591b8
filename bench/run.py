"""gnflow benchmark: one closed-loop client running a workload's jobs back to back.

Usage, from the repository root:

    python3 bench/run.py --workload coupled-certified --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` beside this directory. Set-up (import
plus input generation) is timed several times; then a warm-up round runs
every job once and checks its output, and timed rounds repeat the same jobs
until ``--seconds`` have passed and at least ``MIN_JOBS`` jobs ran. Every
timed job must reproduce its warm-up output bit for bit. ``--trace 1`` adds
a traced set-up and round after the timed ones and reports per-layer
metrics instead of end-to-end ones; spans go to ``.bench_out/``.

Human-readable lines come first; the last line of standard output is the
JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: A run goes on past ``--seconds`` until this many timed jobs ran, so
#: that the 90th percentile has at least ten samples above it.
MIN_JOBS = 100
SETUP_REPEATS = 5

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import gnflow; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Seconds to import the package in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        sha = ref
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
    }


#: A probe runs after any job that ends this long after the last probe, so
#: that short jobs do not pay one probe each.
PROBE_EVERY_S = 0.04
#: Each job is scaled by the median of this many probes on each side of
#: it; a single 5 ms probe jitters by about 20 %.
PROBES_EACH_SIDE = 2


class Round:
    """Outcome of running every job once.

    ``raw`` and ``scaled`` hold each job's latency in seconds, unscaled and
    scaled by the median of the reference probes nearest the job. Probes
    run before the first job, after the last, and after any job that ends
    ``PROBE_EVERY_S`` after the previous probe. Outputs are kept only
    without ``reference_digests``, where the jobs' checks need them; timed
    rounds keep none, so memory does not grow with the number of rounds.
    """

    def __init__(self, jobs, reference_digests, tracer=None):
        self.outputs, self.raw, self.failures = {}, [], []
        probes = [reference.probe()]
        last_probe = time.perf_counter()
        next_probe = []  # index in ``probes`` of the first probe after each job
        for job_id, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = job_id
            t0 = time.perf_counter()
            try:
                out = job.run()
                ran = True
            except Exception as exc:  # a failed job is counted, not fatal
                ran = False
                self.failures.append(f"{job.name}: {type(exc).__name__}: {exc}")
            t1 = time.perf_counter()
            self.raw.append(t1 - t0)
            next_probe.append(len(probes))
            if t1 - last_probe >= PROBE_EVERY_S or job_id == len(jobs) - 1:
                probes.append(reference.probe())
                last_probe = time.perf_counter()
            if not ran:
                continue
            if reference_digests is None:
                self.outputs[job.name] = out
            elif job.digest(out) != reference_digests.get(job.name):
                self.failures.append(f"{job.name}: output differs from the warm-up run")
        k = PROBES_EACH_SIDE
        self.scaled = [
            lat * reference.NOMINAL_S / statistics.median(probes[max(0, i - k):i + k])
            for lat, i in zip(self.raw, next_probe)
        ]
        if reference_digests is None:
            for job in jobs:
                if job.name in self.outputs:
                    msg = job.check(self.outputs[job.name], self.outputs)
                    if msg:
                        self.failures.append(f"{job.name}: {msg}")


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Run one workload; returns (result, report_lines, tracer_or_None)."""
    from workloads import WORKLOADS  # imports gnflow, so only once src/ is on the path

    wl = WORKLOADS[workload]
    env = environment()
    tracing.require_untraced()
    reference.kernel()  # the first call pays lazy library loads; keep it out of the probes

    # Input generation is scaled like the jobs, by the median of the probes
    # on both sides of it. Import time stays unscaled: it is file reads and
    # bytecode loading, which the kernel does not track.
    inputs_s, import_s = [], []
    for _ in range(SETUP_REPEATS):
        before = [reference.probe() for _ in range(PROBES_EACH_SIDE)]
        t0 = time.perf_counter()
        jobs = wl.setup(wl.inputs(seed))
        raw = time.perf_counter() - t0
        after = [reference.probe() for _ in range(PROBES_EACH_SIDE)]
        inputs_s.append(raw * reference.NOMINAL_S / statistics.median(before + after))
        import_s.append(import_seconds())
    setup_s = statistics.median(import_s) + statistics.median(inputs_s)

    warm = Round(jobs, None)
    failures = list(warm.failures)
    attempted = len(jobs)
    digests = {job.name: job.digest(warm.outputs[job.name])
               for job in jobs if job.name in warm.outputs}

    rounds = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(rounds) * len(jobs) < MIN_JOBS:
        rounds.append(Round(jobs, digests))
        failures += rounds[-1].failures
    attempted += len(rounds) * len(jobs)
    raw_lat = [t for r in rounds for t in r.raw]
    lat = [t for r in rounds for t in r.scaled]
    # Each job is deterministic and runs once per round, so its median over
    # the rounds filters host noise while a slow instance keeps its cost.
    round_s = sum(statistics.median(r.scaled[i] for r in rounds) for i in range(len(jobs)))

    notes = []
    if trace:
        tracer = tracing.Tracer()
        with tracer:
            traced = Round(wl.setup(wl.inputs(seed)), digests, tracer)
        tracing.require_untraced()
        attempted += len(traced.scaled)
        failures += traced.failures
        metrics = per_layer_metrics(tracer, sum(traced.scaled) * len(rounds) / sum(lat) - 1.0)
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"spans-{workload}-seed{seed}.csv"
        tracer.write_csv(span_file)
        notes.append(f"spans {len(tracer.start)} written to {span_file.relative_to(ROOT)}")
    else:
        tracer = None
        metrics = {
            "setup_s": (setup_s, "s"),
            "jobs_per_s": (len(jobs) / round_s, "1/s"),
            "steps_per_s": (sum(job.steps for job in jobs) / round_s, "1/s"),
            "job_ms.p50": (1e3 * statistics.median(lat), "ms"),
            "job_ms.p90": (1e3 * statistics.quantiles(lat, n=10)[-1], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    env["loadavg_end"] = list(os.getloadavg())
    lines = [
        f"env {json.dumps(env, sort_keys=True)}",
        f"setup: scaled inputs_s {[round(t, 4) for t in inputs_s]}, "
        f"raw import_s {[round(t, 4) for t in import_s]}",
        f"timed {len(rounds)} rounds of {len(jobs)} jobs, {len(lat)} latency samples",
        f"mean over all jobs: jobs_per_s {len(lat) / sum(lat):.6g} scaled, "
        f"{len(raw_lat) / sum(raw_lat):.6g} raw; raw job_ms.p50 {1e3 * statistics.median(raw_lat):.6g}; "
        f"scale factor median {statistics.median(s / r for s, r in zip(lat, raw_lat)):.4f}",
        *notes,
        *(f"failure {f}" for f in failures[:20]),
        f"failed_frac {len(failures) / attempted:.6g} ratio ({len(failures)} of {attempted} attempted)",
    ]
    for name, (value, unit) in metrics.items():
        samples = f" (samples {len(lat)})" if name.startswith("job_ms.") else ""
        lines.append(f"metric {name} = {value:.6g} {unit}{samples}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, lines, tracer


def per_layer_metrics(tracer, overhead_frac: float) -> dict:
    stats = tracer.layer_stats()
    metrics = {}
    for name, s in stats.items():
        metrics[f"{name}.calls"] = (s["calls"], "count")
        metrics[f"{name}.total_ms"] = (s["total_ms"], "ms")
        metrics[f"{name}.self_ms"] = (s["self_ms"], "ms")
    for name, count in tracer.counts.items():
        metrics[f"{name}.calls"] = (count, "count")
    builds = stats["gallery.compliant_instance"]["calls"]
    attempts = stats["theory.certify_with_canonical_R"]["calls"]
    metrics["gallery.certify_attempts_per_instance"] = (
        attempts / builds if builds else 0.0, "ratio")
    integrate_ms = stats["integrator.integrate"]["total_ms"]
    metrics["flow.diagnostics.share"] = (
        stats["flow.diagnostics"]["total_ms"] / integrate_ms if integrate_ms else 0.0, "ratio")
    metrics["trace.overhead_frac"] = (overhead_frac, "ratio")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "gnflow" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'gnflow'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gnflow

    if Path(gnflow.__file__).resolve().parent != (SRC / "gnflow").resolve():
        print(f"error: gnflow imported from {gnflow.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    result, lines, _ = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
