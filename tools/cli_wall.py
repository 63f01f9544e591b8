"""Time the end-to-end CLI scenarios of two checkouts, alternating them.

The scenarios are the end-to-end measure of speed that the benchmark's
three workloads leave out:

- ``gnflow run`` on every gallery label under both methods;
- ``gnflow verify --suite lemmas|certificate|order``;
- ``gnflow sweep --preset eps0-range``.

Each command runs in a fresh interpreter, in an empty temporary
directory, with the checkout's ``src`` first on the import path, so a
time includes interpreter start-up and ``import gnflow``, as a user sees
it. The two checkouts take turns: in repeat i the parent runs first when
i is even and the change first when i is odd, so a drift of the host's
speed falls on both alike. Usage, from anywhere:

    python3 tools/cli_wall.py /path/to/parent
    python3 tools/cli_wall.py /path/to/parent /path/to/change --repeats 7
    python3 tools/cli_wall.py /path/to/parent --only verify,sweep --json

The change defaults to the checkout this script lives in. The labels are
those both checkouts list, in the change's order. One line per scenario
gives the median wall time of each side in seconds, with its quartiles
(``statistics.quantiles(n=4, method="inclusive")``), and the change's
median relative to the parent's (negative when faster). ``--json``
prints instead one JSON object ``{scenario: {"parent": ..., "change":
...}}``, each side with ``q1``, ``median``, ``q3`` and its ``runs``, the
shape of ``cli_wall_s`` in a ``BENCH_*.json``. A scenario whose exit
code differs between the checkouts is marked, since the two then did
different work.

``--calls`` counts work instead of timing it: each scenario runs once
per side, with ``sys.setprofile`` installed from the start of ``main``
to its return (interpreter start-up and ``import gnflow`` are left
out), and one line gives each side's count of Python-level ``call``
events and of C-level ``c_call`` events. The counts do not depend on the
host's speed, but they do on the Python and numpy versions. With
``--json`` they print as ``{scenario: {"parent": {"call": ...,
"c_call": ...}, "change": ...}}``.

    python3 tools/cli_wall.py /path/to/parent --calls --only verify/lemmas
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SUITES = ("lemmas", "certificate", "order")
METHODS = ("direct", "coupled")
_CLI = "import sys; from gnflow.cli import main; sys.exit(main(sys.argv[1:]))"
_LABELS = "from gnflow.gallery import available_labels; print(*available_labels())"
# Runs ``main`` under a profile function that counts its events by kind and
# writes the counts as JSON to the file named by the first argument, also
# when ``main`` raises.
_COUNT = """import collections, json, sys
from gnflow.cli import main
out, argv = sys.argv[1], sys.argv[2:]
counts = collections.Counter()
def profile(frame, event, arg):
    counts[event] += 1
sys.setprofile(profile)
try:
    code = main(argv)
finally:
    sys.setprofile(None)
    with open(out, "w") as f:
        json.dump({"call": counts["call"], "c_call": counts["c_call"]}, f)
sys.exit(code)
"""


def _env(root: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def labels(root: Path) -> list:
    """The gallery labels of the checkout ``root``."""
    done = subprocess.run([sys.executable, "-c", _LABELS], env=_env(root), check=True,
                          stdout=subprocess.PIPE, text=True)
    return done.stdout.split()


def scenarios(names: list) -> dict:
    """The command line of each scenario, by name, for the labels ``names``."""
    out = {}
    for label in names:
        for method in METHODS:
            out[f"run/{label}/{method}"] = [
                "run", "--problem", label, "--method", method,
                "--out-trajectory", "trajectory.csv", "--out-summary", "summary.txt"]
    for suite in SUITES:
        out[f"verify/{suite}"] = ["verify", "--suite", suite]
    out["sweep/eps0-range"] = ["sweep", "--preset", "eps0-range", "--out", "sweep.csv"]
    return out


def wall(root: Path, argv: list) -> tuple:
    """(seconds, exit code) of one ``gnflow`` command from ``root``, in a
    fresh interpreter and an empty temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", _CLI, *argv], cwd=tmp, env=_env(root),
                              stdout=subprocess.DEVNULL, check=False)
        return time.perf_counter() - start, done.returncode


def calls(root: Path, argv: list) -> dict:
    """The ``call`` and ``c_call`` event counts of one ``gnflow`` command
    from ``root``, profiled in a fresh interpreter and an empty temporary
    directory, with its exit code under ``exit``."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "calls.json")
        done = subprocess.run([sys.executable, "-c", _COUNT, out, *argv], cwd=tmp,
                              env=_env(root), stdout=subprocess.DEVNULL, check=False)
        with open(out) as f:
            return dict(json.load(f), exit=done.returncode)


def summary(runs: list) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4),
            "runs": [round(r, 4) for r in runs]}


def measure(parent: Path, change: Path, argv: list, repeats: int) -> tuple:
    """Both sides' summaries of ``repeats`` alternating runs of ``argv``,
    and whether every run of both sides ended with the same exit code."""
    times = {"parent": [], "change": []}
    codes = set()
    for i in range(repeats):
        order = [("parent", parent), ("change", change)]
        for side, root in order if i % 2 == 0 else order[::-1]:
            seconds, code = wall(root, argv)
            times[side].append(seconds)
            codes.add(code)
    return {side: summary(runs) for side, runs in times.items()}, len(codes) == 1


def count(parent: Path, change: Path, argv: list) -> tuple:
    """Both sides' event counts of one profiled run of ``argv``, and
    whether the two runs ended with the same exit code."""
    sides = {"parent": calls(parent, argv), "change": calls(change, argv)}
    return sides, sides["parent"].pop("exit") == sides["change"].pop("exit")


def time_line(p: dict, c: dict) -> str:
    rel = (c["median"] - p["median"]) / p["median"]
    return (f"parent {p['median']:.3f} [{p['q1']:.3f}, {p['q3']:.3f}]  "
            f"change {c['median']:.3f} [{c['q1']:.3f}, {c['q3']:.3f}]  {rel:+.1%}")


def count_line(p: dict, c: dict) -> str:
    rel = {k: (c[k] - p[k]) / p[k] for k in ("call", "c_call")}
    return (f"parent {p['call']:>9} call {p['c_call']:>9} c_call  "
            f"change {c['call']:>9} call {c['c_call']:>9} c_call  "
            f"{rel['call']:+.1%} call  {rel['c_call']:+.1%} c_call")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path, nargs="?",
                        default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--repeats", type=int, default=5,
                        help="runs per side and scenario (default 5, at least 2)")
    parser.add_argument("--only", default="",
                        help="comma-separated scenario name prefixes, such as run/autoconv-16,verify")
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    parser.add_argument("--calls", action="store_true",
                        help="count call and c_call profile events, one run per side, "
                             "instead of timing")
    args = parser.parse_args(argv)
    if not args.calls and args.repeats < 2:
        parser.error("--repeats must be at least 2, for quartiles")
    parent, change = args.parent.resolve(), args.change.resolve()
    in_parent = set(labels(parent))
    todo = scenarios([name for name in labels(change) if name in in_parent])
    prefixes = [p for p in args.only.split(",") if p]
    if prefixes:
        todo = {k: v for k, v in todo.items() if k.startswith(tuple(prefixes))}
    if args.calls:
        run, line = (lambda argv: count(parent, change, argv)), count_line
    else:
        run, line = (lambda argv: measure(parent, change, argv, args.repeats)), time_line
    result = {}
    for name, command in todo.items():
        sides, same_exit = run(command)
        result[name] = sides
        if not same_exit:
            result[name]["exit_codes_differ"] = True
        if not args.json:
            print(f"{name:<36} {line(sides['parent'], sides['change'])}"
                  + ("  EXIT CODES DIFFER" if not same_exit else ""), flush=True)
    if args.json:
        print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
