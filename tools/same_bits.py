"""Print one line per output that a speed-only change must keep: its name and
a sha256, or, for derivative bounds, their values.

A change that claims "bit-identical" runs this script in a checkout of the
parent and in one of the change, on the same host and BLAS kernel, and
compares the two outputs with ``diff``:

    python3 tools/same_bits.py > change.txt
    python3 tools/same_bits.py /path/to/parent > parent.txt
    diff parent.txt change.txt

The optional argument is the root of the checkout to fingerprint (default:
the one this script lives in), so a commit older than the script can be
fingerprinted with this copy. The lines cover

- the job digests of every benchmark workload at seeds 1 and 9001, each
  through the workload's own ``Job.digest`` (``bench/workloads.py``);
- the stdout and exit code of ``gnflow verify --suite lemmas|certificate|order``;
- the ``gnflow run`` summary, without its ``config.out.*`` lines, and the
  trajectory CSV, for every gallery label under both methods;
- every record of a direct and a coupled run on an affine n = 9 problem
  whose F' is a strided view, and on one whose F' is C-ordered but not
  aligned. Every gallery Jacobian is C-contiguous and aligned, so only
  these runs reach the direct stage's symmetrizing branch
  (``flow._symmetric_gram``);
- the derivative bounds of every instance, in plain values rather than a
  digest, so that a change to the bounds shows per instance: for each
  gallery label, N1 and N2 of ``estimate_bounds`` at xhat with radius
  :data:`BOUNDS_RADIUS` (R is ``-``), and for each ``compliant_suite``
  label, N1, N2 and R of ``certify_with_canonical_R`` at its build seed.
  Each line ends with the bounds' ``source``; a checkout older than that
  field gets the label its path had, ``constant`` for a constant-Jacobian
  problem and ``sampled`` otherwise.

Each ``gnflow`` command runs in a fresh interpreter, in an empty temporary
directory, with the checkout's ``src`` first on the import path.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 9001)
BOUNDS_RADIUS = 0.1
SUITES = ("lemmas", "certificate", "order")
METHODS = ("direct", "coupled")
_CLI = "import sys; from gnflow.cli import main; sys.exit(main(sys.argv[1:]))"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def job_digests():
    """(name, sha256) of every job's digest, per workload and seed."""
    from workloads import WORKLOADS

    for workload in WORKLOADS.values():
        for seed in SEEDS:
            for job in workload.setup(workload.inputs(seed)):
                yield f"job/{workload.name}/seed{seed}/{job.name}", sha256(job.digest(job.run()))


def layout_runs():
    """(name, sha256) of every record of the runs on a strided and on an
    unaligned F', under both methods."""
    import numpy as np
    from gnflow.flow import SolverState, initial_inverse
    from gnflow.integrator import IntegratorConfig, integrate
    from gnflow.problem import NonlinearProblem
    from gnflow.schedule import PowerSchedule

    rng = np.random.default_rng(9)
    strided = (np.eye(18) + 0.2 * rng.standard_normal((18, 18)))[::2, ::2]
    xhat = rng.standard_normal(9)
    unaligned = np.ndarray((9, 9), float, buffer=np.zeros(strided.nbytes + 1, np.uint8)[1:])
    unaligned[...] = strided
    s = PowerSchedule(c0=0.1, c1=1.0, a=1.0)
    cfg = IntegratorConfig(method="rk4", step_h=0.01, horizon_T=1.0, record_every=10)
    x0 = xhat + 0.1
    for layout, A in (("strided", strided), ("unaligned", unaligned)):
        p = NonlinearProblem(dim=9, f=lambda x, A=A: A @ (x - xhat), jac=lambda x, A=A: A,
                             known_solution=xhat)
        for method in METHODS:
            B0 = initial_inverse(p, x0, s.eps(0.0)) if method == "coupled" else None
            traj = integrate(p, s, SolverState(t=0.0, x=x0, B=B0), cfg, xhat=xhat)
            parts = [traj.termination.encode()]
            for st, d in traj.records:
                parts += [np.float64(st.t).tobytes(), st.x.tobytes(),
                          b"" if st.B is None else st.B.tobytes(), repr(d).encode()]
            yield f"layout/{layout}/{method}", sha256(b"|".join(parts))


def _bounds_line(p, bounds, R) -> str:
    source = getattr(bounds, "source", None) or (
        "constant" if getattr(p, "_constant_jac", False) else "sampled")
    return f"{bounds.N1!r} {bounds.N2!r} {R} {source}"


def bounds_lines():
    """(name, "N1 N2 R source") of the bounds of every gallery label at xhat
    and of every certified instance's certificate."""
    from gnflow import gallery, theory
    from gnflow.problem import estimate_bounds

    for label in gallery.available_labels():
        entry = gallery.get_entry(label)
        try:
            bounds = estimate_bounds(entry.problem, entry.xhat, BOUNDS_RADIUS)
        except ValueError as exc:
            yield f"bounds/{label}", f"error: {exc}"
            continue
        yield f"bounds/{label}", _bounds_line(entry.problem, bounds, "-")
    for label, entry, sched, B0, _, seed in gallery.compliant_suite():
        cert, bounds = theory.certify_with_canonical_R(
            entry.problem, entry.xhat, entry.default_x0, sched, B0, seed=seed)
        yield f"certificate/{label}", _bounds_line(entry.problem, bounds, repr(cert.R))


def gnflow(root: Path, cwd: str, *argv: str) -> tuple:
    """Exit code and stdout of one ``gnflow`` command."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", _CLI, *argv], cwd=cwd, env=env,
                          stdout=subprocess.PIPE, check=False)
    return done.returncode, done.stdout


def cli_outputs(root: Path, labels: list):
    """(name, sha256) of the verify batteries and of every gallery run."""
    with tempfile.TemporaryDirectory() as tmp:
        for suite in SUITES:
            code, out = gnflow(root, tmp, "verify", "--suite", suite)
            yield f"verify/{suite}", sha256(b"exit %d\n" % code + out)
        for label in labels:
            for method in METHODS:
                gnflow(root, tmp, "run", "--problem", label, "--method", method,
                       "--out-trajectory", "trajectory.csv", "--out-summary", "summary.txt")
                summary = Path(tmp, "summary.txt").read_text(encoding="ascii").splitlines()
                kept = "\n".join(line for line in summary if not line.startswith("config.out."))
                yield f"run/{label}/{method}/summary", sha256(kept.encode())
                yield f"run/{label}/{method}/trajectory", sha256(
                    Path(tmp, "trajectory.csv").read_bytes())
                for name in ("summary.txt", "trajectory.csv"):
                    Path(tmp, name).unlink()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    from gnflow.gallery import available_labels

    for name, digest in itertools.chain(job_digests(), layout_runs(), bounds_lines(),
                                        cli_outputs(root, available_labels())):
        print(name, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
