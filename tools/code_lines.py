"""Count the code lines of the package, module by module.

A code line is a line of a source file that holds at least one token
other than a comment, a docstring or whitespace; a token that spans
several lines (a string, say) holds each of them. A docstring is the
string that opens a module, class or function body. The counts come from
``tokenize`` and ``ast`` alone, so they do not depend on formatting tools
or installed packages. The script prints one line per module of
``src/gnflow``, in name order, then the total:

    hilbert.py      161
    ...
    total          1705

Run it from anywhere; the optional argument is the root of the checkout
to count (default: the one this script lives in):

    python3 tools/code_lines.py
    python3 tools/code_lines.py /path/to/other/checkout
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

#: Tokens that hold no code.
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.Module) -> set:
    """The line numbers that the docstrings of a parsed module span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of ``source``."""
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED and token.start[0] not in docs:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv: list) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    counts = {path.name: code_lines(path.read_text())
              for path in sorted((root / "src" / "gnflow").glob("*.py"))}
    width = max(map(len, counts)) + 2
    for name, count in counts.items():
        print(f"{name:<{width}}{count:>5}")
    print(f"{'total':<{width}}{sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
