"""Run the Tier-1 suite once per forced OpenBLAS kernel and print its counts.

OpenBLAS picks its kernel from the CPU at load time, and the environment
variable ``OPENBLAS_CORETYPE`` forces another one. Each kernel may round
differently, so a test outcome (a tag, an exit code, an error line) can
depend on it. This script runs ``pytest tests`` in a fresh interpreter
for each kernel in ``KERNELS``, with the variable set in that child
process only, and prints one line per kernel:

    SkylakeX: 820 passed, 0 failed, 0 errors

followed by one indented line per failing or erroring test. Run it from
anywhere; the optional argument is the root of the checkout to test
(default: the one this script lives in):

    python3 tools/core_types.py
    python3 tools/core_types.py /path/to/other/checkout

The suites run one after another, each on the host's default thread count.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

KERNELS = ("SkylakeX", "Haswell", "Sandybridge", "Nehalem", "Prescott")


def tier1(root: Path, kernel: str) -> tuple:
    """(counts by outcome, failing test lines) of one Tier-1 run on ``kernel``."""
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "tests"],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.splitlines()
    summary = lines[-1] if lines else ""
    counts = {outcome: 0 for outcome in ("passed", "failed", "errors")}
    for number, outcome in re.findall(r"(\d+) (passed|failed|errors?)\b", summary):
        counts["errors" if outcome.startswith("error") else outcome] = int(number)
    failing = [line.split(" - ", 1)[0] for line in lines
               if line.startswith(("FAILED ", "ERROR "))]
    return counts, failing


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    for kernel in KERNELS:
        counts, failing = tier1(root, kernel)
        print(f"{kernel}: {counts['passed']} passed, {counts['failed']} failed, "
              f"{counts['errors']} errors", flush=True)
        for line in failing:
            print(f"    {line}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
