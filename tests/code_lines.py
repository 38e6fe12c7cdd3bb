"""Count the code lines of the votephase package.

A code line is a physical line that holds part of a token other than a
comment, after module, class and function docstrings are dropped; blank
lines and comment-only lines do not count. A statement or string that
spans several lines counts each line it spans.

Run from the repository root:

    python3 tests/code_lines.py [package_dir]

It prints one ``count path`` line per module and then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in one module's source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


PACKAGE = Path(__file__).resolve().parents[1] / "src" / "votephase"


def package_lines(root: Path = PACKAGE) -> dict:
    """Code lines of each module in ``root``, keyed by file name."""
    return {
        path.name: code_lines(path.read_text(encoding="utf-8"))
        for path in sorted(root.glob("*.py"))
    }


def main(argv: list) -> int:
    counts = package_lines(Path(argv[0])) if argv else package_lines()
    for name, count in counts.items():
        print(f"{count:5d} {name}")
    print(f"{sum(counts.values()):5d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
