"""List the lines of the package that the Tier-1 suite never runs.

The ``coverage`` package is not a dependency, so this script traces the
suite itself. It runs ``pytest tests`` in this process under
``sys.settrace``, with a local tracer only in frames whose code comes from
a file in ``src/gnflow``, and records every line that runs there. The
executable lines are those of the code objects that each source file
compiles to (``co_lines``), taken from every function, class body, lambda
and comprehension; module-level lines count as run, since every module is
imported. It prints each line that never ran as ``path:line`` followed by
the line's source, then one summary line:

    5 of 1307 executable lines never ran

Run it from anywhere; the optional argument is the root of the checkout
to measure (default: the one this script lives in), and any further
arguments go to pytest:

    python3 tools/line_coverage.py
    python3 tools/line_coverage.py /path/to/other/checkout -x

Tests that start a subprocess are not traced in the child, so a line
that only they reach is listed. The trace makes the suite run two to
three times slower, which is why this is a tool and not a Tier-1 test.
The exit code is pytest's.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest


def executable_lines(path: Path) -> set:
    """Line numbers of every instruction below module level in ``path``."""
    module = compile(path.read_text(), str(path), "exec")
    lines = set()
    todo = [c for c in module.co_consts if hasattr(c, "co_lines")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list) -> int:
    if argv and not argv[0].startswith("-"):
        root, argv = Path(argv[0]).resolve(), argv[1:]
    else:
        root = Path(__file__).resolve().parents[1]
    package = root / "src" / "gnflow"
    files = sorted(package.glob("*.py"))
    ran = {str(f): set() for f in files}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        seen = ran.get(frame.f_code.co_filename)
        if seen is None:
            return None
        seen.add(frame.f_lineno)  # the def line, which no line event reports
        return local

    os.chdir(root)
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    sys.settrace(start)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "tests", *argv])
    finally:
        sys.settrace(None)

    missed = total = 0
    for f in files:
        source = f.read_text().splitlines()
        lines = executable_lines(f)
        total += len(lines)
        for line in sorted(lines - ran[str(f)]):
            missed += 1
            print(f"{f.relative_to(root)}:{line}: {source[line - 1].strip()}")
    print(f"{missed} of {total} executable lines never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
