"""Print the code lines of each module of src/tperfect and their total.

A code line is a source line that holds part of a token other than a
comment, outside the docstrings of modules, classes and functions; blank
lines, comment lines and docstring lines do not count.

    python3 tools/code_lines.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tperfect"
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set:
    """Line numbers of the docstrings in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """Number of code lines in one module's source text."""
    skip = docstring_lines(ast.parse(text))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main() -> int:
    rows = [(path.name, code_lines(path.read_text())) for path in sorted(SRC.glob("*.py"))]
    for name, count in rows:
        print(f"{name:<16} {count:>5}")
    print(f"{'total':<16} {sum(count for _, count in rows):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
