"""Print the code lines of each ``src/teesplit`` module and their total.

A code line is a physical line that holds part of a statement: blank lines,
comment-only lines and the lines of docstrings (the string that opens a
module, class or function body) are not counted. A statement or a string
literal spanning several lines counts each of them. Run it from the root
of a checkout, or name another ``src`` directory to count that tree:

    python3 tools/code_lines.py
    python3 tools/code_lines.py /path/to/other/src
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree):
    """Line numbers of every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text):
    """The number of code lines in one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(text)))


def main(argv):
    src = Path(argv[1] if len(argv) > 1 else "src") / "teesplit"
    counts = {path.stem: code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(src.glob("*.py"))}
    for name, n in counts.items():
        print(f"{name:14} {n:5}")
    print(f"{'total':14} {sum(counts.values()):5}")


if __name__ == "__main__":
    main(sys.argv)
